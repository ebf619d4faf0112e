"""Architecture substrate: topology abstraction, standard fabric families
(mesh, torus, ring, spidergon, fat tree, long-range mesh), customized
topologies and structural metrics."""
