"""The paper's contribution: Q-cut query-aware partitioning (§3.2 + App. A)."""
