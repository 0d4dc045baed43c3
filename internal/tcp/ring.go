package tcp

import (
	"fmt"
	"time"
)

// This file holds the dense hot-path state of the endpoints: window-sized
// ring buffers indexed by sequence number, replacing the
// map[int64]sendInfo / map[int64]bool the sender and receiver used before.
// The congestion window bounds live occupancy — the sender never has more
// than WindowLimit unacknowledged segments (effWindow = min(cwnd, W_m) caps
// the window fill), and every out-of-order segment the receiver
// holds lies in (rcvNxt, rcvNxt+WindowLimit) — so a power-of-two ring of
// capacity > WindowLimit can never alias two live sequence numbers. Each
// slot remembers which sequence owns it; a write finding a live foreign
// occupant is a broken window invariant and panics rather than silently
// corrupting state.

// ringCap returns the power-of-two capacity for a window of w packets: at
// least w+1 so two live in-window sequences never share a slot.
func ringCap(w int) int64 {
	c := int64(2)
	for c < int64(w)+1 {
		c <<= 1
	}
	return c
}

// sendRing is the sender's retransmission state, indexed by segment number.
type sendRing struct {
	slots []sendSlot
	mask  int64
}

type sendSlot struct {
	seq  int64 // owning segment, -1 when empty
	at   time.Duration
	txNo int
}

func newSendRing(window int) sendRing {
	n := ringCap(window)
	slots := make([]sendSlot, n)
	for i := range slots {
		slots[i].seq = -1
	}
	return sendRing{slots: slots, mask: n - 1}
}

// txNo returns how many times seq has been transmitted (0 if not live).
func (r *sendRing) txNo(seq int64) int {
	if s := &r.slots[seq&r.mask]; s.seq == seq {
		return s.txNo
	}
	return 0
}

// get returns the live transmission record for seq.
func (r *sendRing) get(seq int64) (sendInfo, bool) {
	if s := &r.slots[seq&r.mask]; s.seq == seq {
		return sendInfo{at: s.at, txNo: s.txNo}, true
	}
	return sendInfo{}, false
}

// set records a transmission of seq.
func (r *sendRing) set(seq int64, at time.Duration, txNo int) {
	s := &r.slots[seq&r.mask]
	if s.seq != seq && s.seq != -1 {
		panic(fmt.Sprintf("tcp: send ring slot collision: %d vs live %d (window invariant broken)", seq, s.seq))
	}
	s.seq, s.at, s.txNo = seq, at, txNo
}

// clear releases seq's slot (on cumulative acknowledgement).
func (r *sendRing) clear(seq int64) {
	if s := &r.slots[seq&r.mask]; s.seq == seq {
		s.seq = -1
	}
}

// seqSet is the receiver's out-of-order segment set.
type seqSet struct {
	slots []int64
	mask  int64
}

func newSeqSet(window int) seqSet {
	n := ringCap(window)
	slots := make([]int64, n)
	for i := range slots {
		slots[i] = -1
	}
	return seqSet{slots: slots, mask: n - 1}
}

func (r *seqSet) contains(seq int64) bool { return r.slots[seq&r.mask] == seq }

func (r *seqSet) add(seq int64) {
	s := &r.slots[seq&r.mask]
	if *s != seq && *s != -1 {
		panic(fmt.Sprintf("tcp: ooo ring slot collision: %d vs live %d (window invariant broken)", seq, *s))
	}
	*s = seq
}

func (r *seqSet) remove(seq int64) {
	if s := &r.slots[seq&r.mask]; *s == seq {
		*s = -1
	}
}
