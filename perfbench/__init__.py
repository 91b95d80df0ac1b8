"""The repository's benchmark: three workloads, one per answer path.

``plan`` times the MVA model and planner, ``sim`` the discrete-event
simulator and ``live`` the threaded cluster.  ``run.py`` is the entry
point; ``DESIGN.md`` records why each workload exists and which layer
metric should move which end-to-end metric.
"""
