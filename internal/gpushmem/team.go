package gpushmem

// Teams: OpenSHMEM-style PE subsets (nvshmem_team_t). A Team scopes the
// host-side collectives to a subset of PEs; TeamSplit partitions an
// existing team by color/key like shmem_team_split (and MPI_Comm_split).
// The world team is implicit: the PE-level collective methods in
// collectives.go delegate to it.

import (
	"fmt"
	"sort"

	"repro/internal/machine"
	"repro/internal/sim"

	"repro/internal/gpu"
)

// Team is a PE subset handle owned by one PE.
type Team struct {
	pe      *PE
	id      uint64
	members []int // world PE ids, ordered by team rank
	myIdx   int
}

// WorldTeam returns the implicit all-PEs team handle for this PE.
func (pe *PE) WorldTeam() *Team {
	members := make([]int, pe.Size())
	for i := range members {
		members[i] = i
	}
	return &Team{pe: pe, id: 0, members: members, myIdx: pe.rank}
}

// Rank reports the calling PE's rank within the team.
func (t *Team) Rank() int { return t.myIdx }

// Size reports the team size.
func (t *Team) Size() int { return len(t.members) }

// World translates a team rank to a world PE id.
func (t *Team) World(r int) int { return t.members[r] }

// splitInst coordinates one collective TeamSplit call.
type splitInst struct {
	entries map[int][2]int // world rank -> (color, key)
	rdv     *sim.Rendezvous
	ids     map[int]uint64 // color -> new team id
}

// TeamSplit partitions the team by color (negative = join no team),
// ordering each new team by (key, old world rank). Every member of the
// team must call it; the call synchronizes like a barrier.
func (t *Team) TeamSplit(p *sim.Proc, color, key int) *Team {
	pe := t.pe
	w := pe.w
	pe.splitSeq++
	skey := instKey{seq: pe.splitSeq, kind: fmt.Sprintf("team-split-%d", t.id)}
	si := w.splits[skey]
	if si == nil {
		si = &splitInst{
			entries: map[int][2]int{},
			rdv:     sim.NewRendezvous(skey.kind, t.Size()),
			ids:     map[int]uint64{},
		}
		w.splits[skey] = si
	}
	si.entries[pe.rank] = [2]int{color, key}
	// Split costs one dissemination exchange, like a small barrier.
	prof := pe.model().Profile(machine.LibGPUSHMEM, machine.APIHost)
	p.Advance(prof.CallOverhead * sim.Duration(log2Ceil(t.Size())+1))
	si.rdv.Arrive(p)
	if color < 0 {
		return nil
	}
	// All entries present: compute my group deterministically.
	type ent struct{ world, color, key int }
	var group []ent
	for _, wr := range t.members {
		e := si.entries[wr]
		if e[0] == color {
			group = append(group, ent{world: wr, color: e[0], key: e[1]})
		}
	}
	sort.Slice(group, func(i, j int) bool {
		if group[i].key != group[j].key {
			return group[i].key < group[j].key
		}
		return group[i].world < group[j].world
	})
	// Deterministic new team id shared by all members of this color.
	if _, ok := si.ids[color]; !ok {
		w.nextTeamID++
		si.ids[color] = w.nextTeamID
	}
	nt := &Team{pe: pe, id: si.ids[color], myIdx: -1}
	for i, e := range group {
		nt.members = append(nt.members, e.world)
		if e.world == pe.rank {
			nt.myIdx = i
		}
	}
	if nt.myIdx < 0 {
		panic("gpushmem: split lost the calling PE")
	}
	return nt
}

// shrinkInst coordinates one collective Shrink across the survivors.
type shrinkInst struct {
	rdv *sim.Rendezvous
	id  uint64
}

// Shrink reconstructs the team over the members not in dead, preserving
// relative order — the NVSHMEM recovery idiom of destroying a broken team
// and rebuilding it from the surviving PEs. All survivors must call it with
// the same dead set and generation (gen is bumped once per failure epoch by
// the caller); the call synchronizes the survivors like a barrier before
// the new team is usable. Instances of the old team can never match new
// traffic: the rebuilt team has a fresh id.
func (t *Team) Shrink(p *sim.Proc, dead map[int]bool, gen int) *Team {
	pe := t.pe
	w := pe.w
	var members []int
	myIdx := -1
	for _, wr := range t.members {
		if dead[wr] {
			continue
		}
		if wr == pe.rank {
			myIdx = len(members)
		}
		members = append(members, wr)
	}
	if myIdx < 0 {
		panic(fmt.Sprintf("gpushmem: PE %d shrinking a team it failed in", pe.rank))
	}
	skey := instKey{seq: uint64(gen), kind: fmt.Sprintf("team-shrink-%d", t.id)}
	si := w.shrinks[skey]
	if si == nil {
		w.nextTeamID++
		si = &shrinkInst{
			rdv: sim.NewRendezvous(skey.kind, len(members)),
			id:  w.nextTeamID,
		}
		w.shrinks[skey] = si
	}
	// Teardown plus reconstruction exchange, then all survivors synchronize.
	prof := pe.model().Profile(machine.LibGPUSHMEM, machine.APIHost)
	p.Advance(prof.CallOverhead * sim.Duration(log2Ceil(len(members))+2))
	si.rdv.Arrive(p)
	return &Team{pe: pe, id: si.id, members: members, myIdx: myIdx}
}

// Team-scoped host collectives: the same bodies as the world-team versions
// in collectives.go, with ranks mapped through the membership table and
// instances keyed by team id (so concurrent teams do not cross-talk).

func (t *Team) key(kind string) instKey {
	t.pe.devOpSeq++
	return instKey{seq: t.pe.devOpSeq, kind: fmt.Sprintf("%s@team%d", kind, t.id)}
}

// instanceForTeam sizes the collective instance to the team.
func (t *Team) instance(key instKey) *collInst {
	inst := t.pe.w.insts[key]
	if inst == nil {
		n := t.Size()
		inst = &collInst{
			ready:   sim.NewGate(fmt.Sprintf("shmem-%s-%d", key.kind, key.seq)),
			stepRdv: sim.NewRendezvous(fmt.Sprintf("shmem-step-%s-%d", key.kind, key.seq), n),
			sends:   make([]gpu.View, n),
			recvs:   make([]gpu.View, n),
		}
		t.pe.w.insts[key] = inst
	}
	return inst
}

func (inst *collInst) arriveTeam(p *sim.Proc, t *Team, send, recv gpu.View, key instKey, dataFn func(*collInst)) {
	inst.sends[t.myIdx] = send
	inst.recvs[t.myIdx] = recv
	inst.arrived++
	if inst.arrived == t.Size() {
		if dataFn != nil {
			dataFn(inst)
		}
		delete(t.pe.w.insts, key)
		inst.ready.Fire(p.Engine())
		return
	}
	inst.ready.Wait(p)
}

// exchangeRounds over team members (peers derived in team-rank space,
// transfers between world PE ids).
func (t *Team) exchangeRounds(p *sim.Proc, inst *collInst, rounds int, peerOf func(round int) int, bytesOf func(round int) int64) {
	pe := t.pe
	fab := pe.w.cluster.Fabric
	cl := pe.w.cluster
	meWorld := pe.rank
	for r := 0; r < rounds; r++ {
		inst.stepRdv.Arrive(p)
		peer := peerOf(r)
		if peer >= 0 && peer < t.Size() && peer != t.myIdx {
			dst := t.World(peer)
			path := fab.PathBetween(meWorld, dst)
			cost := cl.Cost(machine.LibGPUSHMEM, machine.APIHost, path, bytesOf(r))
			end := fab.Transfer(p.Now(), meWorld, dst, bytesOf(r), cost)
			p.AdvanceTo(end)
		}
	}
	inst.stepRdv.Arrive(p)
}

// BarrierOnStream synchronizes the team's PEs with respect to the stream.
func (t *Team) BarrierOnStream(p *sim.Proc, s *gpu.Stream) {
	key := t.key("h-team-barrier")
	t.pe.hostEnqueue(p, s, "team-barrier", func(sp *sim.Proc) {
		inst := t.instance(key)
		inst.arriveTeam(sp, t, gpu.View{}, gpu.View{}, key, nil)
		n := t.Size()
		t.exchangeRounds(sp, inst, log2Ceil(n),
			func(r int) int { return (t.myIdx + (1 << r)) % n },
			func(int) int64 { return 8 })
	})
}

// AllReduceOnStream reduces count elements across the team.
func (t *Team) AllReduceOnStream(p *sim.Proc, s *gpu.Stream, send, recv gpu.View, opr gpu.ReduceOp) {
	key := t.key("h-team-allreduce")
	t.pe.hostEnqueue(p, s, "team-allreduce", func(sp *sim.Proc) {
		inst := t.instance(key)
		count := send.Len()
		n := t.Size()
		inst.arriveTeam(sp, t, send, recv, key, func(inst *collInst) {
			// Accumulate in rank 0's destination and fan out from it. Every
			// send is consumed before any other destination — which may be
			// its rank's send buffer — is overwritten.
			gpu.ReduceAll(inst.recvs[0], inst.sends, count, opr)
			for r := 1; r < n; r++ {
				gpu.Copy(inst.recvs[r], inst.recvs[0], count)
			}
		})
		bytes := send.Bytes()
		t.exchangeRounds(sp, inst, log2Ceil(n),
			func(r int) int {
				peer := t.myIdx ^ (1 << r)
				if peer >= n {
					return -1
				}
				return peer
			},
			func(int) int64 { return bytes })
	})
}

// BroadcastOnStream broadcasts the team-rank root's buffer.
func (t *Team) BroadcastOnStream(p *sim.Proc, s *gpu.Stream, buf gpu.View, root int) {
	key := t.key("h-team-broadcast")
	t.pe.hostEnqueue(p, s, "team-broadcast", func(sp *sim.Proc) {
		inst := t.instance(key)
		n := t.Size()
		inst.arriveTeam(sp, t, buf, buf, key, func(inst *collInst) {
			src := inst.sends[root]
			for r := 0; r < n; r++ {
				if r != root {
					gpu.Copy(inst.recvs[r], src, src.Len())
				}
			}
		})
		fab := t.pe.w.cluster.Fabric
		cl := t.pe.w.cluster
		if t.myIdx == root {
			last := sp.Now()
			for r := 0; r < n; r++ {
				if r == root {
					continue
				}
				dst := t.World(r)
				path := fab.PathBetween(t.pe.rank, dst)
				cost := cl.Cost(machine.LibGPUSHMEM, machine.APIHost, path, buf.Bytes())
				end := fab.Transfer(sp.Now(), t.pe.rank, dst, buf.Bytes(), cost)
				if end > last {
					last = end
				}
			}
			sp.AdvanceTo(last)
		}
		inst.stepRdv.Arrive(sp)
	})
}

// AllGathervOnStream gathers variable contributions across the team.
func (t *Team) AllGathervOnStream(p *sim.Proc, s *gpu.Stream, send, recv gpu.View, counts, displs []int) {
	key := t.key("h-team-allgatherv")
	t.pe.hostEnqueue(p, s, "team-allgatherv", func(sp *sim.Proc) {
		inst := t.instance(key)
		n := t.Size()
		inst.arriveTeam(sp, t, send, recv, key, func(inst *collInst) {
			for r := 0; r < n; r++ {
				for dst := 0; dst < n; dst++ {
					gpu.Copy(inst.recvs[dst].Slice(displs[r], counts[r]), inst.sends[r], counts[r])
				}
			}
		})
		fab := t.pe.w.cluster.Fabric
		cl := t.pe.w.cluster
		bytes := send.Bytes()
		last := sp.Now()
		for off := 1; off < n; off++ {
			dst := t.World((t.myIdx + off) % n)
			path := fab.PathBetween(t.pe.rank, dst)
			cost := cl.Cost(machine.LibGPUSHMEM, machine.APIHost, path, bytes)
			end := fab.Transfer(sp.Now(), t.pe.rank, dst, bytes, cost)
			if end > last {
				last = end
			}
		}
		sp.AdvanceTo(last)
		inst.stepRdv.Arrive(sp)
	})
}
