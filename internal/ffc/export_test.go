package ffc

import "debruijnring/internal/debruijn"

// BaseBuilds reports how many fault-free bases have been built, for the
// external tests.
func BaseBuilds() int64 { return baseBuilds.Load() }

// PoolDraws reports how many embeds g's embedder pool has served, for
// the external tests.
func PoolDraws(g *debruijn.Graph) int64 { return poolOf(g).draws.Load() }
