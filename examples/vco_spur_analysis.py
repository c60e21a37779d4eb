"""VCO substrate-noise spur analysis (Figures 7, 8 and 9 of the paper).

Extracts the LC-tank VCO test chip, injects a -5 dBm substrate tone and
reports:

* the output spectrum with the spur pair at f_c +/- f_noise (Figure 7),
* the total spur power versus noise frequency for several tuning voltages
  together with the fitted slope (Figure 8),
* the per-entry decomposition showing that the resistive on-chip ground
  interconnect dominates (Figure 9).

The Figure-8 sweep runs on the :mod:`repro.studies` engine in this process
(the default single-worker scheduler; worker processes do not pay off on a
sweep this small); the extraction is reused from the analysis object through
a seeded content-addressed cache persisted under ``.repro-cache/``, so the
sweep itself performs zero extractions and later processes sweeping the same
layout warm-start from disk.

Run with::

    python examples/vco_spur_analysis.py
"""

from __future__ import annotations

import numpy as np

from repro.core.vco_experiment import (
    VcoExperimentOptions,
    VcoImpactAnalysis,
    mechanism_report,
)
from repro.layout.testchips import make_vco_testchip
from repro.studies import DiskExtractionCache
from repro.technology import make_technology


def main() -> None:
    technology = make_technology()
    options = VcoExperimentOptions(
        vtune_values=(0.0, 0.75, 1.5),
        noise_frequencies=tuple(float(f) for f in np.logspace(5, np.log10(15e6), 8)))
    # Resolve the (expensive, 56x56-mesh) extraction through the persistent
    # cache: the first run extracts, every later run loads it from disk.
    cache = DiskExtractionCache(".repro-cache")
    flow = cache.get_or_extract(make_vco_testchip(), technology, options.flow)
    analysis = VcoImpactAnalysis(technology, options=options, flow_result=flow)
    print("extraction summary:", analysis.flow.summary())
    print(f"(cache {'hit — warm start' if cache.stats.hits else 'miss — cold'}; "
          f"entries persisted in .repro-cache/)")

    # --- Figure 7: output spectrum with a 10 MHz tone -------------------------
    spectrum, spur = analysis.output_spectrum(vtune=0.0, noise_frequency=10e6)
    carrier_frequency, carrier_power = spectrum.carrier()
    lower, upper = spectrum.spur_powers(carrier_frequency, 10e6)
    print(f"\nFigure 7 — carrier {carrier_frequency / 1e9:.2f} GHz at "
          f"{carrier_power:.1f} dBm; spurs at fc-/+10 MHz: "
          f"{lower:.1f} / {upper:.1f} dBm")

    # --- Figure 8: spur power versus noise frequency --------------------------
    misses_before = cache.misses
    sweep = analysis.spur_sweep(cache=cache)
    print(f"\nFigure 8 — total spur power at fc +/- fnoise [dBm] "
          f"({cache.misses - misses_before} extractions)")
    header = "f_noise [MHz]" + "".join(
        f"   Vtune={v:.2f}V" for v in sweep.vtune_values)
    print(header)
    for index, frequency in enumerate(sweep.noise_frequencies):
        row = f"{frequency / 1e6:12.3f}"
        for vtune in sweep.vtune_values:
            row += f"   {sweep.spur_power_dbm[vtune][index]:10.1f}"
        print(row)
    for vtune in sweep.vtune_values:
        print(f"  Vtune={vtune:.2f} V: slope "
              f"{sweep.slope_db_per_decade(vtune):6.1f} dB/decade "
              "(paper: -20 dB/decade => resistive coupling + FM)")

    # --- Figure 9: per-entry contributions -------------------------------------
    contributions = analysis.contributions(vtune=0.0)
    report = mechanism_report(contributions)
    print("\nFigure 9 — per-entry contributions (V_tune = 0 V)")
    for name, levels in contributions.contributions_dbm.items():
        print(f"  {name:26s} mean {np.mean(levels):8.1f} dBm   "
              f"slope {contributions.slopes[name]:6.1f} dB/dec   "
              f"{contributions.mechanisms[name]}")
    print(f"dominant entry    : {report.dominant_entry}")
    print(f"dominant mechanism: {report.dominant_mechanism}")
    print(f"ground vs NMOS back-gate gap: "
          f"{contributions.gap_db('ground interconnect', 'NMOS back-gate'):.1f} dB "
          "(paper: ~20 dB)")


if __name__ == "__main__":
    main()
