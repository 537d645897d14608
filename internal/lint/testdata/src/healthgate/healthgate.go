// Package core is an obsgate fixture for the link-health rules; its
// import path ends in "core", making it a hot-layer (append-only)
// package.
package core

import "saiyan/internal/health"

type G struct {
	store *health.Store
	prr   *health.Series
	occ   *health.Series
}

func (g *G) coldBuild() {
	// Store construction and handle resolution outside a hotpath
	// function is constructor territory.
	g.store, _ = health.New(health.Options{Rules: health.DefaultRules()})
	g.prr = g.store.Series("channel.0.prr")
	g.occ = g.store.Series("channel.0.occupancy")
}

//saiyan:hotpath
func (g *G) hotAppend(epoch int, prr, occ float64, trace uint64) {
	// Appending rollup points and sealing the epoch are the legal
	// hot-layer verbs; the handles were resolved in the constructor.
	g.prr.AppendTrace(epoch, prr, trace)
	g.occ.Append(epoch, occ)
	g.store.EndEpoch(epoch)
}

func (g *G) peekDoc() []byte {
	return g.store.HealthJSON() // want `health.HealthJSON reads rollup/journal state from a hot-layer package`
}

func (g *G) peekSeries() []byte {
	return g.store.TimeseriesJSON("channel.0.prr", 0) // want `health.TimeseriesJSON reads rollup/journal state from a hot-layer package`
}

func (g *G) peekDelta() []byte {
	return g.store.DeltaJSON() // want `health.DeltaJSON reads rollup/journal state from a hot-layer package`
}

func (g *G) peekJournal() []health.Alert {
	return g.store.Journal(8) // want `health.Journal reads rollup/journal state from a hot-layer package`
}

//lint:allow obsgate debug shell dumps the journal on operator request
func (g *G) allowedPeek() []health.Alert {
	return g.store.Journal(8)
}

//saiyan:hotpath
func (g *G) hotBuild(epoch int, v float64) {
	g.store, _ = health.New(health.Options{}) // want `health.New constructs store state inside a hotpath function`
	se := g.store.Series("channel.1.prr")     // want `health.Series constructs store state inside a hotpath function`
	se.Append(epoch, v)
}
