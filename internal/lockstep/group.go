package lockstep

import (
	"cmp"
	"fmt"
	"slices"
)

// Group is one rank's handle on a process group — an MPI communicator, a
// GPUCCL communicator or a GPUSHMEM team: who the members are, in group-rank
// order, and which of them the caller is.
type Group struct {
	// ID distinguishes the group's collectives from every other group's in a
	// Table; allocation is the library's business.
	ID uint64
	// Members maps group rank to world rank; nil is the identity (the world
	// group), so a job's n world handles share no n-entry tables.
	Members []int
	Size    int
	Rank    int // the caller's group rank
}

// World translates a group rank to a world rank.
func (g *Group) World(r int) int {
	if g.Members == nil {
		return r
	}
	return g.Members[r]
}

// Vote is one member's argument to a split: the colour of the child it joins
// (negative: none) and its ordering key there.
type Vote struct{ Colour, Key int }

// Partition resolves a split of g for the caller: votes holds every member's
// vote by group rank, and the child of colour consists of the members that
// voted it, ordered by (key, rank in g). The returned child has no ID yet (the
// library allocates it), and Rank −1 if the caller voted another colour.
func (g *Group) Partition(votes []Vote, colour int) Group {
	var members []int
	for r, v := range votes {
		if v.Colour == colour {
			members = append(members, r)
		}
	}
	slices.SortStableFunc(members, func(a, b int) int { return cmp.Compare(votes[a].Key, votes[b].Key) })
	rank := slices.Index(members, g.Rank)
	for i, r := range members {
		members[i] = g.World(r)
	}
	return Group{Members: members, Size: len(members), Rank: rank}
}

// Survivors resolves a shrink of g for the caller: a split in which the
// members whose world rank is in dead join no child and all others keep their
// relative order. A dead caller has no business rebuilding the group: it
// panics.
func (g *Group) Survivors(dead map[int]bool) Group {
	votes := make([]Vote, g.Size)
	for r := range votes {
		if dead[g.World(r)] {
			votes[r].Colour = -1
		}
	}
	child := g.Partition(votes, 0)
	if child.Rank < 0 {
		panic(fmt.Sprintf("lockstep: rank %d (world %d) shrinking a group it failed in", g.Rank, g.World(g.Rank)))
	}
	return child
}
