"""The benchmark's workloads, as lczkit config overrides on top of the
default config. Standard library only: the harness parent reads it without
importing lczkit.

kind "chain" runs `pipeline.run_pipeline` once per pass; kind "restage" runs
the staged from-disk path `run_perturb` -> `run_label` -> `run_analyze` on
models trained in set-up. `setups` is how many times a run sets up, for the
median `setup_s`.
"""

SWEEP_21 = "0,0.5,-0.5,1,-1,2,-2,3,-3,4,-4,5,-5,6,-6,7,-7,8,-8,10,-10"

WORKLOADS = {
    "default-chain": {"kind": "chain", "setups": 7, "config": {}},
    "patch32-chain": {"kind": "chain", "setups": 7,
                      "config": {"grid.width": 32, "grid.height": 32, "vae.arch": "patch"}},
    # Set-up trains short (3 VAE epochs): a pass never trains, and the cost
    # of encode and decode does not depend on how long the models trained.
    "restage-sweep": {"kind": "restage", "setups": 3,
                      "config": {"vae.epochs": 3, "reg.epochs": 100,
                                 "perturb.n_scenes": 100, "perturb.dt_sweep": SWEEP_21}},
}

# Self-test size: every stage runs, at a small fraction of the cost.
TINY = {"synth.n_scenes": 60, "vae.epochs": 2, "vae.hidden": 32, "reg.epochs": 20,
        "perturb.n_scenes": 12}
