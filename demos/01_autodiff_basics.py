"""Tour of the reverse-mode autodiff core.

Builds a few expressions by hand, pulls gradients back through them, and
cross-checks one against central differences before fitting a tiny tanh
network on a sine curve with nothing but the tape.
"""

import numpy as np

from uga import autodiff as ad

rng = np.random.default_rng(0)

# scalars and broadcasting ---------------------------------------------------

a = ad.param(np.array([[1.5, -0.5], [0.25, 2.0]]))
b = ad.param(np.array([[0.5], [-1.0]]))
loss = ad.sum(ad.tanh(ad.matmul(a, b)) * 3.0)
ad.backward(loss)
print("loss            ", loss.item())
print("d loss / d a    \n", a.grad)
print("d loss / d b    \n", b.grad)

# spot-check one entry with central differences
h = 1e-5
probe = a.data.copy()
a.data[0, 0] = probe[0, 0] + h
hi = ad.sum(ad.tanh(ad.matmul(ad.constant(a.data), ad.constant(b.data))) * 3.0).item()
a.data[0, 0] = probe[0, 0] - h
lo = ad.sum(ad.tanh(ad.matmul(ad.constant(a.data), ad.constant(b.data))) * 3.0).item()
a.data[0, 0] = probe[0, 0]
print("numeric vs tape :", (hi - lo) / (2 * h), "vs", a.grad[0, 0])

# no_grad means no tape, useful for evaluation loops
with ad.no_grad():
    silent = ad.sum(ad.exp(b))
print("untracked value :", silent.item())

# a 16-unit tanh net on y = sin(x), trained with plain gradient steps --------

xs = rng.uniform(-3.0, 3.0, size=(256, 1))
ys = np.sin(xs)

w1 = ad.param(rng.normal(scale=0.5, size=(1, 16)))
b1 = ad.param(np.zeros((1, 16)))
w2 = ad.param(rng.normal(scale=0.5, size=(16, 1)))
b2 = ad.param(np.zeros((1, 1)))
params = [w1, b1, w2, b2]


def forward(x):
    # add_row adds a (1, d) bias row to every row; elementwise ops here
    # require matching shapes rather than silent broadcasting
    hcol = ad.tanh(ad.add_row(ad.matmul(ad.constant(x), w1), b1))
    return ad.add_row(ad.matmul(hcol, w2), b2)


for step in range(400):
    for p in params:
        p.zero_grad()
    pred = forward(xs)
    mse = ad.mean((pred - ad.constant(ys)) * (pred - ad.constant(ys)))
    ad.backward(mse)
    for p in params:
        p.data -= 0.05 * p.grad
    if step % 100 == 0:
        print(f"step {step:3d}  mse {mse.item():.5f}")

with ad.no_grad():
    err = forward(xs) - ad.constant(ys)
    final = ad.mean(err * err).item()
print("final mse       ", round(final, 5))
