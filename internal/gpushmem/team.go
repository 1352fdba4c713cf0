package gpushmem

// Teams: OpenSHMEM-style PE subsets (nvshmem_team_t). A Team scopes the
// collectives to a subset of PEs; TeamSplit partitions an existing team by
// color/key like shmem_team_split (and MPI_Comm_split). The world is a team
// too: every PE owns one world-team handle, and the PE-level collective
// methods in collectives.go are calls on it.

import (
	"repro/internal/gpu"
	"repro/internal/lockstep"
	"repro/internal/machine"
	"repro/internal/sim"
)

// Team is a PE subset handle owned by one PE.
type Team struct {
	pe *PE
	// g holds the team id (0 = world), the members' world PE ids in team-rank
	// order (nil = identity: the n world handles of a job share no tables) and
	// the owner's team rank.
	g lockstep.Group

	opSeq    uint64
	splitSeq uint64
}

// WorldTeam returns the PE's handle on the implicit all-PEs team; every call
// returns the same handle.
func (pe *PE) WorldTeam() *Team { return pe.world }

// Rank reports the calling PE's rank within the team.
func (t *Team) Rank() int { return t.g.Rank }

// Size reports the team size.
func (t *Team) Size() int { return t.g.Size }

// World translates a team rank to a world PE id.
func (t *Team) World(r int) int { return t.g.World(r) }

// splitInst coordinates one collective TeamSplit call.
type splitInst struct {
	votes []lockstep.Vote // by parent team rank
	rdv   *sim.Rendezvous
	ids   map[int]uint64 // color -> new team id
}

// TeamSplit partitions the team by color (negative = join no team),
// ordering each new team by (key, rank in the parent team). Every member of
// the team must call it; the call synchronizes like a barrier.
func (t *Team) TeamSplit(p *sim.Proc, color, key int) *Team {
	w := t.pe.w
	t.splitSeq++
	skey := lockstep.Key{Group: t.g.ID, Seq: t.splitSeq, Kind: "team-split"}
	si := w.splits[skey]
	if si == nil {
		si = &splitInst{
			votes: make([]lockstep.Vote, t.Size()),
			rdv:   sim.NewRendezvous(skey.Kind, t.Size()),
			ids:   map[int]uint64{},
		}
		w.splits[skey] = si
	}
	si.votes[t.g.Rank] = lockstep.Vote{Colour: color, Key: key}
	// Split costs one dissemination exchange, like a small barrier.
	prof := t.pe.model().Profile(machine.LibGPUSHMEM, machine.APIHost)
	p.Advance(prof.CallOverhead * sim.Duration(lockstep.Log2Ceil(t.Size())+1))
	si.rdv.Arrive(p)
	if color < 0 {
		return nil
	}
	// Deterministic new team id shared by all members of this color.
	if _, ok := si.ids[color]; !ok {
		w.nextTeamID++
		si.ids[color] = w.nextTeamID
	}
	nt := &Team{pe: t.pe, g: t.g.Partition(si.votes, color)}
	nt.g.ID = si.ids[color]
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
	w := t.pe.w
	nt := &Team{pe: t.pe, g: t.g.Survivors(dead)}
	skey := lockstep.Key{Group: t.g.ID, Seq: uint64(gen), Kind: "team-shrink"}
	si := w.shrinks[skey]
	if si == nil {
		w.nextTeamID++
		si = &shrinkInst{rdv: sim.NewRendezvous(skey.Kind, nt.Size()), id: w.nextTeamID}
		w.shrinks[skey] = si
	}
	// Teardown plus reconstruction exchange, then all survivors synchronize.
	prof := t.pe.model().Profile(machine.LibGPUSHMEM, machine.APIHost)
	p.Advance(prof.CallOverhead * sim.Duration(lockstep.Log2Ceil(nt.Size())+2))
	si.rdv.Arrive(p)
	nt.g.ID = si.id
	return nt
}

// Team-scoped host collectives: the one implementation in collectives.go,
// with ranks mapped through the membership table and instances keyed by team
// id (so concurrent teams do not cross-talk).

// BarrierOnStream synchronizes the team's PEs with respect to the stream.
func (t *Team) BarrierOnStream(p *sim.Proc, s *gpu.Stream) {
	t.onStream(p, s, "team-barrier", collective{kind: kBarrier})
}

// AllReduceOnStream reduces count elements across the team.
func (t *Team) AllReduceOnStream(p *sim.Proc, s *gpu.Stream, send, recv gpu.View, opr gpu.ReduceOp) {
	t.onStream(p, s, "team-allreduce", collective{kind: kAllReduce, send: send, recv: recv, opr: opr})
}

// BroadcastOnStream broadcasts the team-rank root's buffer.
func (t *Team) BroadcastOnStream(p *sim.Proc, s *gpu.Stream, buf gpu.View, root int) {
	t.onStream(p, s, "team-broadcast", collective{kind: kBroadcast, send: buf, recv: buf, root: root})
}

// AllGathervOnStream gathers variable contributions across the team.
func (t *Team) AllGathervOnStream(p *sim.Proc, s *gpu.Stream, send, recv gpu.View, counts, displs []int) {
	t.onStream(p, s, "team-allgatherv", collective{kind: kAllGatherv, send: send, recv: recv, counts: counts, displs: displs})
}
