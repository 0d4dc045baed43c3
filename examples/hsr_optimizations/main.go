// hsr_optimizations runs the same HSR flow under the transport-level
// optimizations this repository implements on top of the paper's findings:
//
//   - plain TCP Reno (the paper's baseline subject),
//   - NewReno partial-ACK recovery,
//   - a TCP-DCA-style adaptive delayed-ACK receiver (Section V-A future work),
//   - an Eifel-style spurious-RTO response (motivated by the 49% spurious
//     timeouts the paper measures),
//   - and all of the above combined,
//
// and prints a side-by-side comparison over a few paired seeds.
//
// Run with:
//
//	go run ./examples/hsr_optimizations
package main

import (
	"fmt"
	"log"
	"time"

	"repro/internal/cellular"
	"repro/internal/dataset"
	"repro/internal/railway"
	"repro/internal/tcp"
)

func main() {
	trip, err := railway.NewTrip(railway.BeijingTianjin, railway.DefaultProfile)
	if err != nil {
		log.Fatal(err)
	}
	start, _ := trip.CruiseWindow()

	type variant struct {
		name string
		cfg  func() tcp.Config
	}
	variants := []variant{
		{"plain Reno", func() tcp.Config { return tcp.DefaultConfig() }},
		{"NewReno", func() tcp.Config {
			c := tcp.DefaultConfig()
			c.Variant = tcp.VariantNewReno
			return c
		}},
		{"adaptive delack", func() tcp.Config {
			c := tcp.DefaultConfig()
			c.AdaptiveDelAck = true
			c.DelayedAckB = 4
			return c
		}},
		{"Eifel response", func() tcp.Config {
			c := tcp.DefaultConfig()
			c.SpuriousRTORecovery = true
			return c
		}},
		{"all combined", func() tcp.Config {
			c := tcp.DefaultConfig()
			c.Variant = tcp.VariantNewReno
			c.AdaptiveDelAck = true
			c.DelayedAckB = 4
			c.SpuriousRTORecovery = true
			return c
		}},
	}

	const seeds = 4
	fmt.Printf("%-16s %10s %10s %10s\n", "variant", "mean pps", "timeouts", "spurious-undone")
	for _, v := range variants {
		var pps float64
		var timeouts, undone int64
		for seed := int64(1); seed <= seeds; seed++ {
			sc := dataset.Scenario{
				ID:           "opt-" + v.name,
				Operator:     cellular.ChinaMobileLTE,
				Trip:         trip,
				TripOffset:   start + time.Duration(seed)*37*time.Second,
				FlowDuration: 60 * time.Second,
				Seed:         seed,
				TCP:          v.cfg(),
				Scenario:     "hsr",
			}
			_, st, err := dataset.RunFlowMetrics(sc)
			if err != nil {
				log.Fatal(err)
			}
			pps += st.ThroughputPps()
			timeouts += st.Timeouts
			undone += st.SpuriousRecoveries
		}
		fmt.Printf("%-16s %10.1f %10d %10d\n", v.name, pps/seeds, timeouts, undone)
	}
	fmt.Println("\nNo transport tweak recovers the handoff dead time itself — that needs")
	fmt.Println("multipath (see examples/mptcp_comparison), exactly the paper's conclusion.")
}
