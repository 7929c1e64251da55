// Command gnf-manager runs the GNF Manager: it listens for Agent
// connections on -listen and serves the UI/REST dashboard on -ui.
//
//	gnf-manager -listen 127.0.0.1:7701 -ui 127.0.0.1:8080 -strategy stateful
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"

	"gnf/internal/clock"
	"gnf/internal/manager"
	"gnf/internal/ui"
)

func main() {
	listen := flag.String("listen", "127.0.0.1:7701", "address for agent connections")
	uiAddr := flag.String("ui", "127.0.0.1:8080", "address for the UI/REST dashboard")
	strategy := flag.String("strategy", "stateful", "roaming migration strategy: cold|stateful")
	hotspot := flag.Float64("hotspot-cpu", 80, "CPU%% threshold for hotspot detection")
	autoscale := flag.Duration("autoscale", 0,
		"shared-instance autoscaler evaluation interval (0 disables; e.g. 2s)")
	reconcileInterval := flag.Duration("reconcile-interval", 0,
		"desired-state reconcile interval (0 disables; e.g. 5s)")
	traceSample := flag.Float64("trace-sample", 1,
		"fraction of control-plane operations to trace (0..1)")
	pprofOn := flag.Bool("pprof", false,
		"expose net/http/pprof under /debug/pprof/ on the UI address")
	flag.Parse()

	var strat manager.Strategy
	switch *strategy {
	case "cold":
		strat = manager.StrategyCold
	case "stateful":
		strat = manager.StrategyStateful
	default:
		fmt.Fprintf(os.Stderr, "unknown strategy %q\n", *strategy)
		os.Exit(2)
	}

	mgr, err := manager.New(clock.System(), *listen,
		manager.WithStrategy(strat), manager.WithHotspotCPU(*hotspot),
		manager.WithTraceSampleRatio(*traceSample))
	if err != nil {
		log.Fatalf("manager: %v", err)
	}
	defer mgr.Close()

	if *autoscale > 0 {
		mgr.StartAutoscaler(*autoscale)
	}

	dash := ui.New(mgr)
	if *pprofOn {
		dash.EnablePprof()
	}
	if err := dash.Start(*uiAddr); err != nil {
		log.Fatalf("ui: %v", err)
	}
	defer dash.Close()

	// The loop idles (ErrNoSpec) until an operator PUTs a spec or runs
	// `gnfctl apply`; from then on it repairs drift every interval.
	if *reconcileInterval > 0 {
		dash.Reconciler().Start(*reconcileInterval)
	}

	log.Printf("gnf-manager: agents on %s, dashboard on http://%s/", mgr.Addr(), dash.Addr())
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt)
	<-sig
	log.Printf("gnf-manager: shutting down")
}
