package ffc

// BaseBuilds reports how many fault-free bases have been built, for the
// external tests.
func BaseBuilds() int64 { return baseBuilds.Load() }
