// Wire: serving a gateway over TCP and watching it from a client — the
// network face of the closed-loop service.
//
// `saiyan serve` drives the gateway's epoch loop directly; a deployed
// access point instead runs it as a daemon that operators and downstream
// consumers attach to. This example does both ends in one process: a
// Server wraps the gateway and streams per-frame decode events plus
// per-epoch metrics over the versioned, CRC-framed wire protocol
// (internal/server documents the bytes), and a Client subscribes, sends a
// control request mid-run, and records the frame stream to a capture file
// it verifies afterwards.
//
// Three properties to watch for in the output:
//
//   - the control override (K=3 for every tag) is applied at an epoch
//     boundary, never mid-epoch — control serializes with serving, so the
//     gateway's determinism survives the network;
//   - the client's own delivery/drop accounting arrives once per epoch: a
//     subscriber that reads too slowly loses messages (counted, reported)
//     rather than stalling the epoch loop;
//   - the stream ends with a bye, and the server-side capture file replays
//     the recorded frame-event history. The client attaches while the
//     service is already running, so expect the transcript to start a few
//     epochs in, and the capture — which also begins at the next epoch
//     boundary after the request — to hold fewer events than were seen
//     live.
//
// Run with: go run ./examples/wire
package main

import (
	"context"
	"fmt"
	"log"
	"os"
	"path/filepath"

	"saiyan"
)

const seed = 20220404

func main() {
	cfg := saiyan.DefaultGatewayConfig()
	cfg.Seed = seed
	cfg.Channels = 2
	cfg.Tags = 6
	cfg.FramesPerTag = 2

	gw, err := saiyan.NewGateway(cfg)
	if err != nil {
		log.Fatalf("starting gateway: %v", err)
	}
	// Capture is an operator opt-in: clients name files relative to this
	// directory and can never reach outside it.
	dir, err := os.MkdirTemp("", "saiyan-wire")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)
	srv, err := saiyan.NewServer(saiyan.ServerConfig{Gateway: gw, Epochs: 5, CaptureDir: dir})
	if err != nil {
		log.Fatalf("starting server: %v", err)
	}
	serveDone := make(chan error, 1)
	go func() { serveDone <- srv.Serve(context.Background()) }()
	fmt.Printf("serving on %s (protocol v%d)\n", srv.Addr(), saiyan.ServerProtocolVersion)

	c, err := saiyan.DialServer(srv.Addr().String())
	if err != nil {
		log.Fatalf("dialing: %v", err)
	}
	defer c.Close()
	if err := c.Subscribe(true, true, false, false); err != nil {
		log.Fatalf("subscribing: %v", err)
	}

	capPath := filepath.Join(dir, "frames.cap")
	if err := c.StartCapture("frames.cap"); err != nil {
		log.Fatalf("starting capture: %v", err)
	}
	// Fire-and-forget control: applied at the next epoch boundary.
	if err := c.OverrideRate(-1, 3); err != nil {
		log.Fatalf("rate override: %v", err)
	}

	frames := 0
	for {
		ev, err := c.Next()
		if err != nil {
			log.Fatalf("stream: %v", err)
		}
		switch ev.Kind {
		case saiyan.ServerEventFrame:
			frames++ // one line per frame would drown the transcript
		case saiyan.ServerEventEpoch:
			rep := ev.Epoch
			fmt.Printf("epoch %d: tags=%d frames=%d fresh=%d switches=%d delivery=%.1f%%\n",
				rep.Epoch, rep.TagsActive, rep.FramesScheduled, rep.FreshDelivered,
				rep.RateSwitches, 100*rep.DeliveryRatio)
		case saiyan.ServerEventStats:
			st := ev.Stats
			fmt.Printf("  this client: frames %d sent / %d dropped\n",
				st.FramesSent, st.FramesDropped)
		case saiyan.ServerEventError:
			fmt.Printf("  control rejected: %s\n", ev.Err)
		case saiyan.ServerEventBye:
			fmt.Printf("bye after %d frame events\n", frames)
			if err := <-serveDone; err != nil {
				log.Fatalf("serve: %v", err)
			}
			events, err := saiyan.ReadFrameCapture(capPath)
			if err != nil {
				log.Fatalf("reading capture: %v", err)
			}
			fmt.Printf("capture: %d frame events recorded server-side\n", len(events))
			snap := gw.Snapshot()
			fmt.Printf("final: epochs=%d delivered=%d/%d switches=%d\n",
				snap.Epochs, snap.FramesDelivered, snap.FramesScheduled, snap.RateSwitches)
			return
		}
	}
}
