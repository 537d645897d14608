package gateway

import (
	"strings"

	"saiyan/internal/mac"
	"saiyan/internal/obs"
)

// Epoch stage indexes into gatewayObs.stages.
const (
	stageRender = iota
	stageDecode
	stageIngest
	stageControl
	stageEpoch
	numStages
)

// gatewayObs holds the gateway's registered observability series, the
// pmetrics idiom: with Config.Metrics unset it is the zero value, on is
// false and every handle is nil, and a nil obs handle no-ops. Call sites
// therefore write unconditionally and gate only their clock reads on on.
// Everything here is write-only: no control decision ever reads a metric
// back, which is what keeps gateway snapshots byte-identical with
// observability on or off.
type gatewayObs struct {
	on         bool
	epochs     *obs.Counter
	sessions   *obs.Gauge
	tagsActive *obs.Gauge
	stages     [numStages]*obs.Histogram

	// Downlink command outcomes by opcode, pre-registered so sendCommand
	// stays alloc-free.
	cmdsDelivered, cmdsMissed map[mac.Opcode]*obs.Counter

	retxAttempts  *obs.Counter
	retxAbandoned *obs.Counter
}

// newGatewayObs registers the gateway metric family on r (nil r → the zero
// value, meaning observability off).
func newGatewayObs(r *obs.Registry) gatewayObs {
	if r == nil {
		return gatewayObs{}
	}
	stage := func(name string) *obs.Histogram {
		return r.Histogram(`saiyan_gateway_stage_seconds{stage="`+name+`"}`,
			"per-epoch stage wall time", obs.HistogramOpts{Min: 1e-4, Growth: 2, Buckets: 22})
	}
	o := gatewayObs{
		on:            true,
		epochs:        r.Counter("saiyan_gateway_epochs_total", "epochs served"),
		sessions:      r.Gauge("saiyan_gateway_sessions", "session registry size, live and departed"),
		tagsActive:    r.Gauge("saiyan_gateway_tags_active", "tags currently deployed"),
		cmdsDelivered: make(map[mac.Opcode]*obs.Counter),
		cmdsMissed:    make(map[mac.Opcode]*obs.Counter),
		retxAttempts: r.Counter("saiyan_gateway_retx_attempts_total",
			"retransmit budget spent: command attempts for missing frames"),
		retxAbandoned: r.Counter("saiyan_gateway_retx_abandoned_total",
			"missing frames dropped after exhausting the retry budget"),
	}
	for i, name := range [numStages]string{"render", "decode", "ingest", "control", "epoch"} {
		o.stages[i] = stage(name)
	}
	for _, op := range []mac.Opcode{mac.OpAck, mac.OpRetransmit, mac.OpHopChannel, mac.OpSetRate, mac.OpRecalibrate} {
		name := `saiyan_gateway_cmds_total{op="` + strings.ReplaceAll(op.String(), "-", "_") + `",outcome=`
		o.cmdsDelivered[op] = r.Counter(name+`"delivered"}`, "downlink command outcomes by opcode")
		o.cmdsMissed[op] = r.Counter(name+`"missed"}`, "downlink command outcomes by opcode")
	}
	return o
}
