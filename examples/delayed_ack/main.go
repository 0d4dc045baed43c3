// delayed_ack explores Section V-A of the paper: the delayed-ACK window b
// trades ACK traffic against vulnerability to ACK burst loss. On the HSR
// channel, fewer ACKs per round mean fewer chances for one "precious" ACK
// to survive a handoff, so spurious timeouts rise with b.
//
// Run with:
//
//	go run ./examples/delayed_ack
package main

import (
	"fmt"
	"log"

	"repro/internal/experiments"
	"repro/internal/export"
)

func main() {
	cfg := experiments.Quick()
	cfg.PairsPerOperator = 5 // 10 flows per b setting

	res, err := experiments.DelayedAck(cfg)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(export.Text(res.Section()))

	fmt.Println("Interpretation: as b grows the receiver emits fewer, heavier ACKs; losing")
	fmt.Println("one round's worth of them stalls the sender into a (often spurious) RTO.")
	fmt.Println("The paper therefore suggests adapting the delayed-ACK window to mobility.")
}
