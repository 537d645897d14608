package lint

import (
	"go/ast"
	"go/types"
	"path"
)

// gateRule is obsgate's rule set for one telemetry package.
type gateRule struct {
	// reads are the APIs that read state back out. The hot layers only
	// feed the plane; a read on the frame path takes a lock, merges
	// shards, or allocates, so reads belong to the telemetry plane.
	reads map[string]bool
	// constructs register or build plane state under a lock and may
	// allocate; they belong in constructors, never in hotpath bodies.
	constructs map[string]bool
	// state names what a read reads, readWhy and constructWhy finish the
	// two diagnostics, and construct is the construct diagnostic's verb.
	state, readWhy, construct, constructWhy string
}

// gateRules keys obsgate's rules by the telemetry package's last import
// path element, so testdata fixtures qualify too. Writes (Counter.Add,
// flight Append/Trigger/TraceID/BeginEpoch, health Append/AppendTrace/
// EndEpoch) appear in neither set: they stay legal everywhere.
var gateRules = map[string]gateRule{
	"obs": {
		reads: map[string]bool{
			"Value": true, "Mean": true, "Snapshot": true, "WritePrometheus": true,
		},
		constructs: map[string]bool{
			"Counter": true, "Gauge": true, "Histogram": true,
			"NewHistogram": true, "NewRegistry": true, "NewHandler": true,
		},
		state:        "metric state",
		readWhy:      "instrumentation is write-only here; reads belong to the telemetry plane",
		construct:    "registers/constructs a metric",
		constructWhy: "it locks the registry per call; resolve handles once in the constructor",
	},
	"flight": {
		reads: map[string]bool{
			"Recent": true, "RecentJSON": true, "QueryJSON": true, "Find": true,
		},
		constructs:   map[string]bool{"New": true},
		state:        "recorder state",
		readWhy:      "the flight recorder is write-only here; dump reads belong to the telemetry plane",
		construct:    "constructs a recorder",
		constructWhy: "it allocates the ring shards; build the recorder once at startup",
	},
	"health": {
		reads: map[string]bool{
			"HealthJSON": true, "TimeseriesJSON": true, "DeltaJSON": true, "Journal": true,
		},
		constructs:   map[string]bool{"New": true, "Series": true},
		state:        "rollup/journal state",
		readWhy:      "the health store is append-only here; reads belong to the telemetry plane",
		construct:    "constructs store state",
		constructWhy: "it takes the store lock and may allocate; resolve handles once in the constructor",
	},
}

// ObsGate keeps instrumentation one-directional: hot-layer packages (the
// snapshot set) may only write to internal/obs handles, internal/flight
// rings, and internal/health rollups, and hotpath functions may not
// register or construct metrics/recorders/stores per call. Together with
// the nil-safe handle design (a nil *Counter/*Gauge/*Histogram/
// *flight.Recorder/*health.Series is a no-op) this is what lets the same
// binary run fully instrumented or fully dark with identical outputs.
var ObsGate = &Analyzer{
	Name: "obsgate",
	Doc:  "keeps internal/obs, internal/flight, and internal/health write-only from hot layers and registration out of hotpath functions",
	Run:  runObsGate,
}

func runObsGate(p *Pass) error {
	hotLayer := inSnapshotPackage(p)
	for _, f := range p.Files {
		if p.isTestFile(f.FileStart) {
			continue
		}
		walkWithStack(f, func(n ast.Node, stack []ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			fn, ok := p.Info.Uses[sel.Sel].(*types.Func)
			if !ok || fn.Pkg() == nil {
				return true
			}
			pkg := path.Base(fn.Pkg().Path())
			rule, ok := gateRules[pkg]
			if !ok {
				return true
			}
			name := fn.Name()
			if hotLayer && rule.reads[name] {
				p.Reportf(call.Pos(), "%s.%s reads %s from a hot-layer package: %s", pkg, name, rule.state, rule.readWhy)
				return true
			}
			fd := enclosingFuncDecl(stack)
			if fd != nil && HasDirective(fd, "hotpath") && rule.constructs[name] {
				p.Reportf(call.Pos(), "%s.%s %s inside a hotpath function: %s", pkg, name, rule.construct, rule.constructWhy)
			}
			return true
		})
	}
	return nil
}
