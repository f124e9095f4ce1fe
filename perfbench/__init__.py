"""Run/replay benchmark for shadowspec; see README.md in this directory."""
