package main

// Example runs the quickstart and checks its full output: the throughput
// and the two models' deviations are a pure function of the scenario's
// seed, so a drift here means the simulated behaviour changed.
func Example() {
	main()
	// Output:
	// == measured on the simulated train ==
	// throughput:            128.5 packets/s (1.49 Mbit/s)
	// data loss rate p_d:    0.5204%
	// ACK loss rate p_a:     0.7573%
	// mean RTT:              72ms
	// timeout sequences:     8 (8 spurious)
	// mean timeout recovery: 5.78 s
	// recovery loss rate q:  50.0%
	//
	// == model predictions vs reality ==
	// actual:         128.5 pps
	// Padhye model:   149.5 pps (deviation D = 16.4%)
	// enhanced model: 105.2 pps (deviation D = 18.1%)
	//
	// The enhanced model captures the ACK-burst-driven spurious timeouts and the
	// lossy timeout recovery phases that the Padhye model cannot see.
}
