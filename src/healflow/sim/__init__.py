"""The fault world, its scenario scripts and the simulation that runs flows against them."""
