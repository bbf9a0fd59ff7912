import kocalc as kc

# ### Real structures
#
# A real structure J is an antiunitary operator commuting with the real
# algebra generated by the gammas.  kocalc represents J by its linear
# part K (so J v = K conj(v)).  K is an ordered product of generators:
# each gamma is real or imaginary, and K must be the product of the
# imaginary ones if there are evenly many, else of the real ones.

rep = kc.build_gammas(2, 0)
j = kc.find_real_structure(rep)
print("K for Cl(2,0):")
print(j.k)
print("J^2 = ", j.squared())

rep = kc.build_gammas(0, 2)
j = kc.find_real_structure(rep)
print("\nK for Cl(0,2):")
print(j.k)
print("J^2 is -identity:",
      j.squared() == kc.ExactMatrix.identity(2).scaled(kc.GaussianRational(-1)))

# ### Canonical triples and the three signs
#
# `canonical_triple(p, q)` packages the construction into a finite real
# spectral triple: a Dirac operator (zero, or the first hermitian
# generator), the chirality, and the real structure.  Three signs
# characterise the triple:
#
#     J^2      = eps
#     J D      = eps'  D J
#     J Omega  = eps'' Omega J
#
# and the pair (eps, eps'') pins down the mod-8 class sigma.

for p, q in [(1, 1), (2, 0), (4, 0), (0, 2)]:
    t = kc.canonical_triple(p, q, "gamma1" if p >= 1 else "zero")
    signs = kc.extract_signs(t)
    sigma = kc.signature(p, q)
    print("(%d,%d): signs %s, sigma = %d" % (p, q, signs, sigma))

# ### The sign table
#
# The stored table maps each sigma to its sign triple.  Even rows are
# recomputable from the canonical representatives above; odd rows have
# no matrix model here and stay table-only.

for sigma in range(8):
    print("sigma", sigma, "->", kc.EPSILON_TABLE[sigma])

signs = kc.extract_signs(kc.canonical_triple(4, 0, "gamma1"))
print("KO lookup for measured (4,0) signs:", kc.ko_from_signs(signs, "even"))

# ### Axiom validation
#
# `validate_triple` re-checks every defining identity and reports each
# one separately, with a pinpointed witness for any failure.

report = kc.validate_triple(kc.canonical_triple(2, 2, "gamma1"))
print("\nvalidation of canonical (2,2):")
print(report)

# ### Twisting the real structure
#
# Replacing J by J Omega flips eps' and multiplies eps by eps''.  Doing
# it twice restores the original operator exactly.

t = kc.canonical_triple(2, 0, "gamma1")
before = kc.extract_signs(t)
twisted = kc.twist_real_structure(t)
after = kc.extract_signs(twisted)
print("\ntwist: %s -> %s" % (before, after))
print("double twist restores K:",
      kc.twist_real_structure(twisted).real_structure.k == t.real_structure.k)

# ### Serialization
#
# Triples persist as schema-versioned JSON with rational-string entries
# and a fixed key order, so serialization is byte-deterministic.

data = kc.serialize_triple(t, {"label": "demo"})
print("\nserialized bytes:", len(data))
back = kc.parse_triple(data)
print("round trip preserves D:", back.dirac == t.dirac)
