"""Tour of finite root systems and their affine windows.

Run as: python3 demos/01_root_systems.py
"""

from weylwords import build_root_system, sub_system
from weylwords.affine import affine_window

# Root systems are built from a type label; everything is exact (integer
# coordinates over the simple roots and coroots, rational Gram matrix).
for label in ("A2", "C2", "G2"):
    rs = build_root_system(label)
    norms = sorted({rs.pairing(r, r) for r in rs.roots})
    print(f"{label}: {len(rs.roots)} roots, squared lengths {norms}")

# G2 has short roots of squared length 2/3; their coroots are long.  The
# highest root 3a1 + 2a2 is long, and its coroot is a1-check + 2 a2-check.
g2 = build_root_system("G2")
for root in (g2.simple_root(1), g2.roots[-1]):
    print(f"\nG2 root {root}, squared length {g2.pairing(root, root)}")
    print("  coroot over the simple coroots:", g2.coroot_coords(root))

# Subsystems restrict to a subset J of the simple indices and split into
# irreducible components, each with its own highest root.
a3 = build_root_system("A3")
sub = sub_system(a3, (1, 3))
print("\nA3 restricted to J=(1,3):")
print("  components:", sub.components)
print("  highest roots:", sub.highest_roots)

# The positive affine roots up to a level cutoff: each classical root
# lifts to a tower m*delta + eps, plus the imaginary roots m*delta.
window = affine_window(sub_system(a3, (1, 2, 3)), 1)
print(f"\nA3 affine window at level <= 1 ({len(window)} roots):")
print(" ", ", ".join(str(b) for b in window))
