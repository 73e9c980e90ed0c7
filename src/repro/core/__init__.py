"""The paper's primary contribution: ABACUS / PARABACUS and their substrates.

Modules
-------
encoding        left/right vertex id encoding for a flat adjacency dict
sample_graph    bounded edge sample: adjacency sets (+ bitmasks once dense),
                O(1) random eviction
counting        per-edge butterfly counting kernel (Alg. 1 lines 6-11)
probability     Eq. 1 discovery probability, Thm. 2 variance formulas
random_pairing  Random Pairing sampler (Alg. 2) with delta recording
abacus          sequential ABACUS (Alg. 1)
parabacus       mini-batch PARABACUS (Sec. V) with serial/Spark executors
exact           exact butterfly counting engines (ground truth)
"""
