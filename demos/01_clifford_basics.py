import kocalc as kc

# ### Exact scalars and matrices
#
# Everything in kocalc is computed over the Gaussian rationals: complex
# numbers whose real and imaginary parts are exact rationals, held as an
# `int` when integral and as a `fractions.Fraction` otherwise.  There is
# no floating point anywhere, so every equality test below is exact.

i = kc.GaussianRational(0, 1)
half = kc.GaussianRational.coerce(1) / 2
print("i * i =", i * i)
print("1/2 + 1/3 =", half + kc.GaussianRational.coerce(1) / 3)

sigma_x = kc.ExactMatrix.from_rows([[0, 1], [1, 0]])
sigma_z = kc.ExactMatrix.from_rows([[1, 0], [0, -1]])
print("sigma_x @ sigma_z =")
print(sigma_x @ sigma_z)

# ### Generators of a real Clifford algebra
#
# `build_gammas(p, q)` constructs n = p + q generators satisfying
# Gamma^a Gamma^b + Gamma^b Gamma^a = 2 eta^{ab} with eta = diag(+1 x p,
# -1 x q), acting on a space of dimension 2^(n/2).  Entries are always
# 0, +-1 or +-i, and every generator is purely real or purely imaginary.

rep = kc.build_gammas(1, 3)
print("\nCl(1,3) generators (dim %d):" % rep.dim)
for idx, g in enumerate(rep.gammas, start=1):
    print("Gamma^%d =" % idx)
    print(g)

eye = kc.ExactMatrix.identity(rep.dim)
g1, g2 = rep.gammas[0], rep.gammas[1]
print("Gamma^1 squares to +1:", g1 @ g1 == eye)
print("Gamma^2 squares to -1:", g2 @ g2 == eye.scaled(kc.GaussianRational(-1)))
print("Gamma^1 Gamma^2 + Gamma^2 Gamma^1 = 0:", (g1 @ g2 + g2 @ g1).is_zero())

# ### Volume element and chirality
#
# The ordered product Theta = Gamma^1 ... Gamma^n squares to
# (-1)^((p-q)/2) times the identity.  The chirality operator is Theta
# itself when (p - q) mod 4 == 0 and i*Theta otherwise; either way it is
# hermitian, squares to +1, and anticommutes with every generator.

theta = kc.volume_element(rep)
print("\nTheta^2 sign for (1,3):", kc.theta_square_sign(1, 3))
omega = kc.chirality(rep)
print("chirality is hermitian:", omega.is_hermitian())
print("chirality squares to identity:", (omega @ omega).is_identity())
print("chirality anticommutes with Gamma^1:",
      (omega @ g1 + g1 @ omega).is_zero())

# ### Classification mod 8
#
# Up to the mod-8 class of p - q, each Cl(p,q) is a matrix algebra (or a
# sum of two) over R, C or H.  `classify_algebra` names the algebra and
# the unitary group of the canonical representation space.

for p, q in [(1, 3), (3, 1), (2, 0), (0, 2), (4, 0)]:
    cls = kc.classify_algebra(p, q)
    print("Cl(%d,%d) ~ %s, unitary group %s"
          % (p, q, cls.algebra_name(), cls.unitary_group_label))

cls = kc.classify_algebra(2, 0)
print("connected component note for Cl(2,0):", cls.connected_note)
