package core

import (
	"fmt"
	"testing"

	"repro/internal/gpu"
	"repro/internal/machine"
)

// backendsFor lists the backend/mode combinations a machine supports.
func backendsFor(m *machine.Model) []BackendID {
	b := []BackendID{MPIBackend, GpucclBackend}
	if m.HasGPUSHMEM {
		b = append(b, GpushmemBackend)
	}
	return b
}

func TestLaunchValidation(t *testing.T) {
	if _, err := Launch(Config{Model: nil, NGPUs: 2}, func(*Env) {}); err == nil {
		t.Error("nil model accepted")
	}
	if _, err := Launch(Config{Model: machine.Perlmutter(), NGPUs: 0}, func(*Env) {}); err == nil {
		t.Error("zero GPUs accepted")
	}
	if _, err := Launch(Config{Model: machine.LUMI(), NGPUs: 2, Backend: GpushmemBackend}, func(*Env) {}); err == nil {
		t.Error("GPUSHMEM on LUMI accepted")
	}
}

func TestEnvironmentRanks(t *testing.T) {
	seen := map[int]bool{}
	_, err := Launch(Config{Model: machine.Perlmutter(), NGPUs: 6, Backend: MPIBackend}, func(env *Env) {
		if env.WorldSize() != 6 {
			t.Errorf("world size = %d", env.WorldSize())
		}
		if env.NodeRank() != env.WorldRank()%4 {
			t.Errorf("rank %d node rank %d", env.WorldRank(), env.NodeRank())
		}
		env.SetDevice(env.NodeRank())
		seen[env.WorldRank()] = true
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(seen) != 6 {
		t.Fatalf("ranks seen: %v", seen)
	}
}

func TestAllocBackends(t *testing.T) {
	for _, b := range backendsFor(machine.Perlmutter()) {
		b := b
		t.Run(b.String(), func(t *testing.T) {
			_, err := Launch(Config{Model: machine.Perlmutter(), NGPUs: 2, Backend: b}, func(env *Env) {
				m := Alloc[float64](env, 16)
				if m.Len() != 16 {
					t.Errorf("len = %d", m.Len())
				}
				m.Data()[3] = 7
				if m.View(3, 1).Len() != 1 {
					t.Error("view failed")
				}
				m.Free()
			})
			if err != nil {
				t.Fatal(err)
			}
		})
	}
}

// haloExchange runs the paper's Listing 4 pattern: kernel, CommStart,
// Post/Acknowledge with both neighbours, CommEnd — for iters iterations on
// a 1D ring-free chain decomposition. It returns the final halo values seen
// by each rank so the test can verify the data movement.
func haloExchange(t *testing.T, model *machine.Model, backend BackendID, mode LaunchMode, n, iters int) [][2]float64 {
	t.Helper()
	result := make([][2]float64, n)
	_, err := Launch(Config{Model: model, NGPUs: n, Backend: backend}, func(env *Env) {
		me := env.WorldRank()
		env.SetDevice(env.NodeRank())
		comm := NewCommunicator(env)
		stream := env.NewStream("compute")

		// interior[0..1] are my boundary values; halo[0] from top (me-1),
		// halo[1] from bottom (me+1).
		interior := Alloc[float64](env, 2)
		halo := Alloc[float64](env, 2)
		sync := Alloc[uint64](env, 4)

		coord := NewCoordinator(env, mode, stream)
		top, bottom := me-1, me+1

		var dc *DeviceComm
		if mode != PureHost {
			dc = comm.ToDevice()
		}

		for iter := 1; iter <= iters; iter++ {
			iter := iter
			// "Compute": refresh my boundary values.
			kernel := &gpu.Kernel{Name: "compute", Body: func(kc *gpu.KernelCtx) {
				interior.Data()[0] = float64(1000*me + iter)
				interior.Data()[1] = float64(1000*me + iter)
				if mode == PureHost {
					return
				}
				// Device-side sends (PartialDevice: payload only;
				// PureDevice: payload+signal, then wait in kernel).
				var sig0, sig1 Signal
				val := uint64(iter)
				if mode == PureDevice {
					sig0, sig1 = Sig(sync, 0), Sig(sync, 1)
				}
				if top >= 0 {
					DevPost(kc, Block, interior.At(0), halo.At(1), 1, sig1, val, top, dc)
				}
				if bottom < env.WorldSize() {
					DevPost(kc, Block, interior.At(1), halo.At(0), 1, sig0, val, bottom, dc)
				}
				if mode == PureDevice {
					if top >= 0 {
						DevAcknowledge(kc, Sig(sync, 0), val, dc)
					}
					if bottom < env.WorldSize() {
						DevAcknowledge(kc, Sig(sync, 1), val, dc)
					}
				}
			}}
			coord.BindKernel(mode, kernel, nil)
			coord.LaunchKernel()
			if mode != PureDevice {
				coord.CommStart()
				val := uint64(iter)
				if top >= 0 {
					Post(coord, interior.At(0), halo.At(1), 1, Sig(sync, 1), val, top, comm)
				}
				if bottom < env.WorldSize() {
					Post(coord, interior.At(1), halo.At(0), 1, Sig(sync, 0), val, bottom, comm)
				}
				if top >= 0 {
					Acknowledge(coord, halo.At(0), 1, Sig(sync, 0), val, top, comm)
				}
				if bottom < env.WorldSize() {
					Acknowledge(coord, halo.At(1), 1, Sig(sync, 1), val, bottom, comm)
				}
				coord.CommEnd()
			}
			comm.Barrier(stream)
			env.StreamSynchronize(stream)
		}
		result[me] = [2]float64{halo.Data()[0], halo.Data()[1]}
	})
	if err != nil {
		t.Fatal(err)
	}
	return result
}

func TestHaloExchangeAllBackends(t *testing.T) {
	const n, iters = 4, 3
	for _, model := range []*machine.Model{machine.Perlmutter(), machine.LUMI()} {
		for _, b := range backendsFor(model) {
			modes := []LaunchMode{PureHost}
			if b == GpushmemBackend {
				modes = append(modes, PartialDevice, PureDevice)
			}
			for _, mode := range modes {
				model, b, mode := model, b, mode
				t.Run(fmt.Sprintf("%s_%v_%v", model.Name, b, mode), func(t *testing.T) {
					got := haloExchange(t, model, b, mode, n, iters)
					for me := 0; me < n; me++ {
						wantTop, wantBottom := 0.0, 0.0
						if me > 0 {
							wantTop = float64(1000*(me-1) + iters)
						}
						if me < n-1 {
							wantBottom = float64(1000*(me+1) + iters)
						}
						if got[me][0] != wantTop || got[me][1] != wantBottom {
							t.Errorf("rank %d halos = %v, want [%v %v]",
								me, got[me], wantTop, wantBottom)
						}
					}
				})
			}
		}
	}
}

func TestCollectivesMatchAcrossBackends(t *testing.T) {
	// The same program must produce identical numerical results on every
	// backend — the portability claim.
	const n, count = 4, 9
	type outcome struct {
		allreduce []float64
		bcast     []float64
		gathered  []float64
		alltoall  []float64
	}
	run := func(b BackendID) outcome {
		var out outcome
		_, err := Launch(Config{Model: machine.Perlmutter(), NGPUs: n, Backend: b}, func(env *Env) {
			me := env.WorldRank()
			env.SetDevice(env.NodeRank())
			comm := NewCommunicator(env)
			stream := env.NewStream("s")
			coord := NewCoordinator(env, PureHost, stream)

			// AllReduce
			ar := Alloc[float64](env, count)
			for i := range ar.Data() {
				ar.Data()[i] = float64(me*count + i)
			}
			AllReduceInPlace(coord, gpu.ReduceSum, ar.Base(), count, comm)

			// Broadcast from rank 2
			bc := Alloc[float64](env, count)
			if me == 2 {
				for i := range bc.Data() {
					bc.Data()[i] = float64(i * i)
				}
			}
			Broadcast(coord, bc.Base(), count, 2, comm)

			// Gatherv to rank 1 with variable counts. Allocations must be
			// symmetric (same size on every rank); the contribution is a
			// prefix view, as in the CG solver.
			counts := []int{1, 2, 3, 4}
			displs := []int{0, 1, 3, 6}
			send := Alloc[float64](env, 4)
			for i := 0; i < counts[me]; i++ {
				send.Data()[i] = float64(100*me + i)
			}
			recv := Alloc[float64](env, 10)
			Gatherv(coord, send.Base(), recv.Base(), counts, displs, 1, comm)

			// AlltoAll
			a2as := Alloc[float64](env, n)
			a2ar := Alloc[float64](env, n)
			for i := range a2as.Data() {
				a2as.Data()[i] = float64(10*me + i)
			}
			AlltoAll(coord, a2as.Base(), a2ar.Base(), 1, comm)

			env.StreamSynchronize(stream)
			comm.Barrier(stream)
			env.StreamSynchronize(stream)
			if me == 0 {
				out.allreduce = append([]float64{}, ar.Data()...)
				out.bcast = append([]float64{}, bc.Data()...)
				out.alltoall = append([]float64{}, a2ar.Data()...)
			}
			if me == 1 {
				out.gathered = append([]float64{}, recv.Data()...)
			}
		})
		if err != nil {
			t.Fatalf("backend %v: %v", b, err)
		}
		return out
	}
	ref := run(MPIBackend)
	// Reference checks against hand-computed values.
	for i, v := range ref.allreduce {
		want := 0.0
		for r := 0; r < n; r++ {
			want += float64(r*count + i)
		}
		if v != want {
			t.Fatalf("MPI allreduce[%d] = %v, want %v", i, v, want)
		}
	}
	for i, v := range ref.bcast {
		if v != float64(i*i) {
			t.Fatalf("MPI bcast[%d] = %v", i, v)
		}
	}
	for _, b := range []BackendID{GpucclBackend, GpushmemBackend} {
		got := run(b)
		if fmt.Sprint(got) != fmt.Sprint(ref) {
			t.Errorf("backend %v results differ:\n got %+v\nwant %+v", b, got, ref)
		}
	}
}

func TestReduceAndScatter(t *testing.T) {
	const n = 4
	for _, b := range backendsFor(machine.MareNostrum5()) {
		b := b
		t.Run(b.String(), func(t *testing.T) {
			_, err := Launch(Config{Model: machine.MareNostrum5(), NGPUs: n, Backend: b}, func(env *Env) {
				me := env.WorldRank()
				comm := NewCommunicator(env)
				stream := env.NewStream("s")
				coord := NewCoordinator(env, PureHost, stream)

				s := Alloc[float64](env, 3)
				r := Alloc[float64](env, 3)
				for i := range s.Data() {
					s.Data()[i] = float64(me + i)
				}
				Reduce(coord, gpu.ReduceSum, s.Base(), r.Base(), 3, 0, comm)
				env.StreamSynchronize(stream)
				comm.Barrier(stream)
				env.StreamSynchronize(stream)
				for i, v := range s.Data() { // non-root results land in scratch, never in send
					if v != float64(me+i) {
						t.Errorf("rank %d: reduce wrote send[%d] = %v", me, i, v)
					}
				}
				if me == 0 {
					for i := 0; i < 3; i++ {
						want := float64(0+1+2+3) + float64(n*i)
						if r.Data()[i] != want {
							t.Errorf("reduce[%d] = %v, want %v", i, r.Data()[i], want)
						}
					}
				}

				// Scatter from rank 3.
				src := Alloc[float64](env, 2*n)
				if me == 3 {
					for i := range src.Data() {
						src.Data()[i] = float64(i)
					}
				}
				dst := Alloc[float64](env, 2)
				Scatter(coord, src.Base(), dst.Base(), 2, 3, comm)
				env.StreamSynchronize(stream)
				comm.Barrier(stream)
				env.StreamSynchronize(stream)
				if dst.Data()[0] != float64(2*me) || dst.Data()[1] != float64(2*me+1) {
					t.Errorf("rank %d scatter = %v", me, dst.Data())
				}
			})
			if err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestAlltoAllvAcrossBackends(t *testing.T) {
	// Vectorized exchange with a shared counts/displs table: 3 elements
	// per pair, landing at padded, non-contiguous displacements (the
	// vectorized aspect). Pairwise counts must be symmetric per the
	// MPI_Alltoallv contract, which a shared table guarantees when counts
	// are uniform.
	const n, count, total = 4, 3, 20
	counts := []int{count, count, count, count}
	displs := []int{0, 5, 10, 15}
	run := func(b BackendID) [n][]float64 {
		var out [n][]float64
		_, err := Launch(Config{Model: machine.Perlmutter(), NGPUs: n, Backend: b}, func(env *Env) {
			me := env.WorldRank()
			comm := NewCommunicator(env)
			stream := env.NewStream("s")
			coord := NewCoordinator(env, PureHost, stream)
			send := Alloc[float64](env, total)
			recv := Alloc[float64](env, total)
			for r := 0; r < n; r++ {
				for i := 0; i < count; i++ {
					send.Data()[displs[r]+i] = float64(100*me + 10*r + i)
				}
			}
			AlltoAllv(coord, send.Base(), recv.Base(), counts, displs, counts, displs, comm)
			env.StreamSynchronize(stream)
			comm.Barrier(stream)
			env.StreamSynchronize(stream)
			out[me] = append([]float64{}, recv.Data()...)
		})
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	ref := run(MPIBackend)
	for me := 0; me < n; me++ {
		for src := 0; src < n; src++ {
			for i := 0; i < count; i++ {
				want := float64(100*src + 10*me + i)
				if got := ref[me][displs[src]+i]; got != want {
					t.Fatalf("MPI rank %d recv[%d] = %v, want %v", me, displs[src]+i, got, want)
				}
			}
		}
	}
	for _, b := range []BackendID{GpucclBackend, GpushmemBackend} {
		got := run(b)
		for me := 0; me < n; me++ {
			for src := 0; src < n; src++ {
				for i := 0; i < count; i++ {
					at := displs[src] + i
					if got[me][at] != ref[me][at] {
						t.Fatalf("%v rank %d recv[%d] = %v, MPI ref %v",
							b, me, at, got[me][at], ref[me][at])
					}
				}
			}
		}
	}
}

func TestSplitAllBackends(t *testing.T) {
	// Split works on every backend (MPI_Comm_split / ncclCommSplit /
	// shmem_team_split): 6 ranks split by parity into two groups of 3;
	// each group's AllReduce must sum only its own members' world ranks,
	// and P2P within the split must address the right world peers.
	const n = 6
	for _, b := range backendsFor(machine.Perlmutter()) {
		b := b
		t.Run(b.String(), func(t *testing.T) {
			_, err := Launch(Config{Model: machine.Perlmutter(), NGPUs: n, Backend: b}, func(env *Env) {
				me := env.WorldRank()
				comm := NewCommunicator(env)
				stream := env.NewStream("s")
				coord := NewCoordinator(env, PureHost, stream)

				color := me % 2
				sub := comm.Split(color, me)
				if sub.GlobalSize() != 3 {
					t.Errorf("rank %d: sub size = %d", me, sub.GlobalSize())
				}
				if want := me / 2; sub.GlobalRank() != want {
					t.Errorf("rank %d: sub rank = %d, want %d", me, sub.GlobalRank(), want)
				}

				// Collective scoped to the sub-communicator.
				x := Alloc[float64](env, 1)
				x.Data()[0] = float64(me)
				AllReduceInPlace(coord, gpu.ReduceSum, x.Base(), 1, sub)
				env.StreamSynchronize(stream)
				sub.Barrier(stream)
				env.StreamSynchronize(stream)
				want := 0.0
				for wr := color; wr < n; wr += 2 {
					want += float64(wr)
				}
				if x.Data()[0] != want {
					t.Errorf("rank %d: sub allreduce = %v, want %v", me, x.Data()[0], want)
				}

				// P2P within the sub-communicator: ring to the next member.
				subN := sub.GlobalSize()
				right := (sub.GlobalRank() + 1) % subN
				left := (sub.GlobalRank() - 1 + subN) % subN
				sendB := Alloc[float64](env, 1)
				recvB := Alloc[float64](env, 1)
				sync := Alloc[uint64](env, 2)
				sendB.Data()[0] = float64(1000 + me)
				coord.CommStart()
				Post(coord, sendB.Base(), recvB.Base(), 1, Sig(sync, 0), 1, right, sub)
				Acknowledge(coord, recvB.Base(), 1, Sig(sync, 0), 1, left, sub)
				coord.CommEnd()
				env.StreamSynchronize(stream)
				sub.Barrier(stream)
				env.StreamSynchronize(stream)
				leftWorld := (me - 2 + n) % n
				if recvB.Data()[0] != float64(1000+leftWorld) {
					t.Errorf("rank %d: sub p2p got %v, want %v", me, recvB.Data()[0], float64(1000+leftWorld))
				}
			})
			if err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestSplitNoColorReturnsNil(t *testing.T) {
	for _, b := range backendsFor(machine.Perlmutter()) {
		b := b
		t.Run(b.String(), func(t *testing.T) {
			_, err := Launch(Config{Model: machine.Perlmutter(), NGPUs: 4, Backend: b}, func(env *Env) {
				comm := NewCommunicator(env)
				color := 0
				if env.WorldRank() == 3 {
					color = -1 // joins no sub-communicator
				}
				sub := comm.Split(color, env.WorldRank())
				if env.WorldRank() == 3 {
					if sub != nil {
						t.Error("negative color returned a communicator")
					}
					return
				}
				if sub.GlobalSize() != 3 {
					t.Errorf("sub size = %d", sub.GlobalSize())
				}
			})
			if err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestPartialDeviceRequiresShmem(t *testing.T) {
	_, err := Launch(Config{Model: machine.Perlmutter(), NGPUs: 2, Backend: MPIBackend}, func(env *Env) {
		defer func() {
			if recover() == nil {
				t.Error("PartialDevice on MPI did not panic")
			}
		}()
		NewCoordinator(env, PartialDevice, env.DefaultStream())
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestGroupingEnablesBidirectionalRendezvous(t *testing.T) {
	// Large (rendezvous-protocol) bidirectional exchanges deadlock with
	// blocking calls unless ordered; grouping (Isend/Irecv + Waitall)
	// overlaps the two directions, so it must also beat the serialized
	// even-sends-first ordering.
	const count = 1 << 17 // 1 MiB of float64: rendezvous on all machines
	run := func(grouped bool) (end int64) {
		rep, err := Launch(Config{Model: machine.Perlmutter(), NGPUs: 2, Backend: MPIBackend}, func(env *Env) {
			me := env.WorldRank()
			comm := NewCommunicator(env)
			stream := env.NewStream("s")
			coord := NewCoordinator(env, PureHost, stream)
			a := Alloc[float64](env, count)
			b := Alloc[float64](env, count)
			sync := Alloc[uint64](env, 2)
			peer := 1 - me
			for iter := 1; iter <= 10; iter++ {
				if grouped {
					coord.CommStart()
					Post(coord, a.Base(), b.Base(), count, Sig(sync, 0), uint64(iter), peer, comm)
					Acknowledge(coord, b.Base(), count, Sig(sync, 1), uint64(iter), peer, comm)
					coord.CommEnd()
					continue
				}
				// Blocking calls must be ordered to avoid deadlock.
				if me == 0 {
					Post(coord, a.Base(), b.Base(), count, Sig(sync, 0), uint64(iter), peer, comm)
					Acknowledge(coord, b.Base(), count, Sig(sync, 1), uint64(iter), peer, comm)
				} else {
					Acknowledge(coord, b.Base(), count, Sig(sync, 1), uint64(iter), peer, comm)
					Post(coord, a.Base(), b.Base(), count, Sig(sync, 0), uint64(iter), peer, comm)
				}
			}
		})
		if err != nil {
			panic(err)
		}
		return int64(rep.End)
	}
	g := run(true)
	ug := run(false)
	if g >= ug {
		t.Fatalf("grouped bidirectional exchange (%d) not faster than serialized blocking (%d)", g, ug)
	}
}
