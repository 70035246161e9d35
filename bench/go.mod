module enblogue/bench

go 1.24

require enblogue v0.0.0

replace enblogue => ../
