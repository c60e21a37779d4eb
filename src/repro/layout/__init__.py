"""Layout model: geometry, cells, parameterised generators and test chips."""

from .._lazy import attach

__getattr__, __dir__, __all__ = attach(__name__, {
    ".geometry": ("Path", "Point", "Rect", "bounding_box"),
    ".cell": ("Cell", "DeviceAnnotation", "Pin"),
    ".primitives": ("MosfetLayoutSpec", "draw_bond_pad", "draw_mosfet",
                    "draw_spiral_inductor", "draw_substrate_contact_ring",
                    "draw_substrate_injection_contact", "draw_varactor",
                    "draw_wire"),
    ".testchips": ("NET_GATE", "NET_GROUND", "NET_GROUND_PAD",
                   "NET_GROUND_RING", "NET_OFFCHIP_GROUND", "NET_OUT",
                   "NET_SUB", "NET_SUPPLY", "NET_TAIL", "NET_TANK_N",
                   "NET_TANK_P", "NET_TUNE", "NmosStructureSpec",
                   "VcoLayoutSpec", "backgate_node",
                   "make_nmos_measurement_structure", "make_vco_testchip"),
})
