// Quickstart: simulate one TCP flow on a phone riding the Beijing-Tianjin
// high-speed railway, analyze its packet trace the way the paper does, and
// compare the measured throughput with the Padhye baseline and the paper's
// enhanced model.
//
// Run with:
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"
	"time"

	"repro/internal/cellular"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/railway"
	"repro/internal/tcp"
)

func main() {
	// The physical setting: the BTR line at 300 km/h cruise.
	trip, err := railway.NewTrip(railway.BeijingTianjin, railway.DefaultProfile)
	if err != nil {
		log.Fatal(err)
	}
	cruiseStart, _ := trip.CruiseWindow()

	// One 90-second bulk download over China Mobile's LTE network while the
	// train crosses cells every ~12 seconds.
	scenario := dataset.Scenario{
		ID:           "quickstart",
		Operator:     cellular.ChinaMobileLTE,
		Trip:         trip,
		TripOffset:   cruiseStart,
		FlowDuration: 90 * time.Second,
		Seed:         42,
		TCP:          tcp.DefaultConfig(),
		Scenario:     "hsr",
	}

	// Run the simulation, streaming its packet events into the analyzer that
	// reduces them to the paper's metrics.
	m, _, err := dataset.RunFlowMetrics(scenario)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("== measured on the simulated train ==")
	fmt.Printf("throughput:            %.1f packets/s (%.2f Mbit/s)\n", m.ThroughputPps, m.ThroughputBps/1e6)
	fmt.Printf("data loss rate p_d:    %.4f%%\n", m.DataLossRate*100)
	fmt.Printf("ACK loss rate p_a:     %.4f%%\n", m.AckLossRate*100)
	fmt.Printf("mean RTT:              %v\n", m.MeanRTT.Round(time.Millisecond))
	fmt.Printf("timeout sequences:     %d (%d spurious)\n", m.TimeoutSequences, m.SpuriousTimeouts)
	fmt.Printf("mean timeout recovery: %.2f s\n", m.MeanRecoveryDuration.Seconds())
	fmt.Printf("recovery loss rate q:  %.1f%%\n", m.RecoveryLossRate*100)

	// Feed the measured parameters into both throughput models.
	params := core.ParamsFromMetrics(m)
	padhye, err := core.Padhye(params)
	if err != nil {
		log.Fatal(err)
	}
	enhanced, err := core.Enhanced(params)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("\n== model predictions vs reality ==")
	fmt.Printf("actual:         %.1f pps\n", m.ThroughputPps)
	fmt.Printf("Padhye model:   %.1f pps (deviation D = %.1f%%)\n",
		padhye, core.Deviation(padhye, m.ThroughputPps)*100)
	fmt.Printf("enhanced model: %.1f pps (deviation D = %.1f%%)\n",
		enhanced, core.Deviation(enhanced, m.ThroughputPps)*100)
	fmt.Println("\nThe enhanced model captures the ACK-burst-driven spurious timeouts and the")
	fmt.Println("lossy timeout recovery phases that the Padhye model cannot see.")
}
