// The benchmark is a module of its own so that it builds from this
// directory with nothing but the repository beside it: the replace
// directive points at the checkout it sits in, and the module path under
// idivm/ keeps idivm/internal/... importable.
module idivm/benchmark

go 1.22

require idivm v0.0.0

replace idivm => ../
