package mpi

import (
	"fmt"

	"repro/internal/gpu"
	"repro/internal/sim"
)

// exchange is the one implementation of the blocking point-to-point forms —
// Send, Recv, the pairwise sendrecv, recvReduce, sendrecvReduce and the
// exchange loops of the collectives: a state machine kept on the handle and
// run as a script (sim.Proc.AdvanceFn) in the caller's own wake slots, so the
// caller parks once however many rounds it runs. From the call at t it does
// what the coroutine form did, at the same instants and in the same event
// slots: post the receive at t+CO (CO is the profile's call overhead), inject
// the send at t+2·CO, enlist on the receive gate and then the send gate
// while either is unfired, and otherwise go on — into the next round the loop
// hook loads, or back into the coroutine. DESIGN.md §5.3.
type exchange struct {
	c *Comm
	p *sim.Proc // the caller while an exchange is outstanding, else nil

	// The round in hand, named by the loaders below.
	hasSend, hasRecv bool
	sendBuf          gpu.View
	dst, sendTag     int
	recvBuf, seed    gpu.View
	op               gpu.ReduceOp
	src, recvTag     int
	phase            exchangePhase

	// pr is the receive, reused from round to round and call to call; h is
	// the rendezvous envelope whose send gate is still awaited (an eager one
	// belongs to its receiver from injection on). An unwind that leaves
	// either outstanding abandons it (release).
	pr *postedRecv
	h  *header

	// next is exchangeLoop's hook: called in the slot that completes a round,
	// it runs that round's epilogue and loads the next, or reports false.
	next  func(round int) bool
	round int
	step  func() sim.Duration // run, bound once
}

type exchangePhase uint8

const (
	phasePost   exchangePhase = iota // the first call overhead is charged: post the receive
	phaseInject                      // the send's call overhead is charged: inject it
	phaseWait                        // wait for the receive, then the send
)

func (x *exchange) send(buf gpu.View, dst, tag int) {
	x.c.checkDst(dst)
	x.hasSend, x.sendBuf, x.dst, x.sendTag = true, buf, dst, tag
}

func (x *exchange) recv(buf, seed gpu.View, src, tag int, op gpu.ReduceOp) {
	x.hasRecv, x.recvBuf, x.seed, x.src, x.recvTag, x.op = true, buf, seed, src, tag, op
}

func (x *exchange) sendrecv(sendBuf gpu.View, dst, sendTag int, recvBuf gpu.View, src, recvTag int) {
	x.recv(recvBuf, gpu.View{}, src, recvTag, 0)
	x.send(sendBuf, dst, sendTag)
}

func (x *exchange) sendrecvReduce(sendBuf gpu.View, dst, sendTag int, recvBuf, seed gpu.View, src, recvTag int, op gpu.ReduceOp) {
	if sendBuf.Overlaps(recvBuf) {
		panic(fmt.Sprintf("mpi: sendrecvReduce with overlapping send [%d,%d) and receive [%d,%d) windows of one buffer",
			sendBuf.Offset(), sendBuf.Offset()+sendBuf.Len(), recvBuf.Offset(), recvBuf.Offset()+recvBuf.Len()))
	}
	x.recv(recvBuf, seed, src, recvTag, op)
	x.send(sendBuf, dst, sendTag)
}

// exchange runs the loaded round — and, through the loop hook, every further
// one — to completion and returns the last receive's status.
func (c *Comm) exchange(p *sim.Proc) Status {
	x := &c.x
	if x.p != nil {
		panic(fmt.Sprintf("mpi: %s starts a blocking call on a communicator handle on which %s has one outstanding",
			p.Name(), x.p.Name()))
	}
	x.p, x.phase, x.round = p, phasePost, 0
	defer x.release()
	p.AdvanceFn(c.ep.world.prof.CallOverhead, x.step)
	return x.pr.status
}

// exchangeLoop runs blocking exchanges back to back, parking the caller once.
// next(0) loads the first round with the loaders above; next(k), called in
// the slot that completes round k-1, runs that round's epilogue (reduce what
// arrived, pick the next peer and tag) and loads round k, or reports false
// when no round is left — what the body of a for loop around a pairwise exchange did.
func (c *Comm) exchangeLoop(p *sim.Proc, next func(round int) bool) {
	if next(0) {
		c.x.next = next
		c.exchange(p)
	}
}

// release ends a call, on return or on an unwind through it (an interrupt or
// abort raised in a step, a kill, Close). A receive still posted or landing
// and a rendezvous envelope still with its receiver stay where the unwind
// found them, as the coroutine form's did, and the handle takes fresh ones.
func (x *exchange) release() {
	if x.hasRecv && !x.pr.done.Fired() {
		x.pr = &postedRecv{}
	}
	if x.h != nil {
		x.h.lib = false
	}
	x.p, x.h, x.next, x.hasSend, x.hasRecv = nil, nil, nil, false, false
}

// run is the script step.
func (x *exchange) run() sim.Duration {
	c, p, w := x.c, x.p, x.c.ep.world
	co := w.prof.CallOverhead
	for {
		switch x.phase {
		case phasePost:
			x.phase = phaseInject
			if x.hasRecv {
				c.post(x.pr, x.recvBuf, x.src, x.recvTag, x.seed, x.op)
				if x.hasSend && co > 0 {
					return co
				}
			}
		case phaseInject:
			x.phase = phaseWait
			if x.hasSend {
				// Nothing has run since injection, so the envelope is still
				// ours to look at; from here on an eager one is not.
				if h := c.inject(x.sendBuf, x.dst, x.sendTag, true); !h.eager {
					x.h = h
				}
			}
		case phaseWait:
			if x.hasRecv && !x.pr.done.Enlist(p) {
				return sim.StepEnlisted
			}
			switch {
			case x.h != nil:
				if !x.h.sGate.Enlist(p) {
					return sim.StepEnlisted
				}
				w.retire(x.h)
				x.h = nil
			case x.hasSend:
				p.CheckInterrupt() // an eager send waits on nothing and is a delivery point all the same
			}
			x.hasSend, x.hasRecv = false, false
			x.round++
			if x.next == nil || !x.next(x.round) {
				return sim.StepResume
			}
			x.phase = phasePost
			if co > 0 {
				return co
			}
		}
	}
}
