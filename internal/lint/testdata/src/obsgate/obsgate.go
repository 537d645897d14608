// Package gateway is an obsgate fixture; its import path ends in
// "gateway", making it a hot-layer (write-only) package.
package gateway

import "saiyan/internal/obs"

type G struct {
	frames *obs.Counter
	depth  *obs.Gauge
	lat    *obs.Histogram
	reg    *obs.Registry
}

func (g *G) write(n uint64) {
	g.frames.Add(n)
	g.depth.Set(float64(n))
	g.lat.ObserveShardTrace(0, 1, 0)
}

func (g *G) read() uint64 {
	return g.frames.Value() // want `obs.Value reads metric state from a hot-layer package`
}

func (g *G) snapshot() int {
	return len(g.reg.Snapshot()) // want `obs.Snapshot reads metric state from a hot-layer package`
}

//lint:allow obsgate startup banner prints the initial counter once
func (g *G) allowedRead() uint64 {
	return g.frames.Value()
}

func (g *G) coldRegister() {
	// Registration outside a hotpath function is constructor territory.
	g.frames = g.reg.Counter("frames_total", "frames")
}

//saiyan:hotpath
func (g *G) hotRegister() {
	c := g.reg.Counter("oops_total", "per-frame registration") // want `obs.Counter registers/constructs a metric inside a hotpath function`
	c.Inc()
}

//saiyan:hotpath
func (g *G) hotWrite(w int, v float64) {
	g.lat.ObserveShardTrace(w, v, 0)
	g.frames.Inc()
}
