"""Integrated MPC + potential-field local planner/tracker with a
closed-loop corridor simulator for a two-wheel independent
drive/steer robot.

The package root exports nothing: each module is imported under its own
name (`apfmpc.simulator.run`, `apfmpc.mpc.MpcController`, ...), and
importing one module loads only what it needs. `apfmpc.geometry` loads no
numpy, no yaml and no other module of the package."""
