"""The expression language: parsing, evaluation, symbolic derivatives, compiled kernels."""

import numpy as np

from saddlebvp import ScalarField, compile_trees, differentiate, evaluate, parse, to_string

text = "sin(k*x)*y + u*exp(-x^2) + tanh(y)/2"
ast = parse(text)
print("source:  ", text)
print("printed: ", to_string(ast))

env = {"k": 2.0, "x": 0.3, "y": -1.1, "u": 0.7}
print("value:   ", evaluate(ast, env))

fx = differentiate(ast, "x")
fy = differentiate(ast, "y")
print("d/dx:    ", to_string(fx))
print("d/dy:    ", to_string(fy))

# central differences agree with the symbolic derivative
h = 1e-6 * (1 + abs(env["x"]))
fd = (evaluate(ast, {**env, "x": env["x"] + h}) - evaluate(ast, {**env, "x": env["x"] - h})) / (2 * h)
print(f"d/dx at env: symbolic {evaluate(fx, env):.12f}, central difference {fd:.12f}")

# a full field carries both first and second partials
field = ScalarField.from_text("x*y + exp(x) - exp(y)")
for name in ("fx", "fy", "fxx", "fxy", "fyy"):
    print(f"{name:>4}: {to_string(getattr(field, name))}")

# evaluation broadcasts over numpy arrays (one value per node)
k = np.arange(1, 6, dtype=float)
vals = evaluate(parse("sin(3.141592653589793*k/6)*x"), {"k": k, "x": 2.0, "y": 0.0, "u": 0.0})
print("node-dependent integrand at x=2:", np.round(vals, 6))

# one compiled kernel computes several trees, each shared subtree once, and
# gives the interpreter's values bit for bit
kernel = compile_trees((field.fx, field.fy))
x, y = np.linspace(-1.0, 1.0, 5), np.linspace(1.0, -1.0, 5)
gx, gy = kernel(k, x, y, 0.0)
env = {"k": k, "x": x, "y": y, "u": 0.0}
print("kernel equals evaluate:", np.array_equal(gx, evaluate(field.fx, env))
      and np.array_equal(gy, evaluate(field.fy, env)))
