// The benchmark is a module of its own so that it builds from its own
// build file and no file outside benchmark/ changes; the import path
// keeps the parent module's prefix, which is what lets it import the
// parent's internal/ packages.
module github.com/rgml/rgml/benchmark

go 1.22

require github.com/rgml/rgml v0.0.0

replace github.com/rgml/rgml => ../
