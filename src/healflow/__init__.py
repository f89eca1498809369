"""healflow: a self-healing dataflow runtime with a fault-injection simulator."""
