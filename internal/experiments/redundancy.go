package experiments

import (
	"fmt"
	"io"
	"time"

	"nvmcp/internal/core"
	"nvmcp/internal/erasure"
	"nvmcp/internal/interconnect"
	"nvmcp/internal/mem"
	"nvmcp/internal/nvmkernel"
	"nvmcp/internal/remote"
	"nvmcp/internal/report"
	"nvmcp/internal/sim"
	"nvmcp/internal/workload"
)

// RedundancyResult compares buddy replication against XOR parity for the
// remote checkpoint level.
type RedundancyResult struct {
	Members   int
	CkptPerND int64 // checkpoint bytes per node

	BuddyFootprint  int64 // remote NVM held per protected node
	ParityFootprint int64 // remote NVM held per protected node

	BuddyShip  int64 // fabric bytes per remote round per node
	ParityShip int64

	BuddyRecover  time.Duration // hard-failure recovery of one node
	ParityRecover time.Duration
}

// RunRedundancy quantifies the trade-off the paper's related work points at
// (Plank et al.): buddy replication holds a full extra copy of every node's
// checkpoint remotely but recovers with one transfer; a G-member XOR parity
// group holds 1/G as much remote state per protected node but must read the
// parity plus G−1 survivors to rebuild one node.
func RunRedundancy() RedundancyResult {
	const members = 4
	spec := workload.GTC().ScaledTo(100 * mem.MB)
	spec.IterTime = 5 * time.Second
	spec.CommPerIter = 0
	out := RedundancyResult{Members: members, CkptPerND: spec.CheckpointSize()}

	// --- Buddy replication -------------------------------------------------
	{
		e := sim.NewEnv()
		fabric := interconnect.New(e, 2, 0)
		nvms := []*mem.Device{mem.NewPCM(e, 16*mem.GB), mem.NewPCM(e, 16*mem.GB)}
		k := nvmkernel.New(e, mem.NewDRAM(e, 16*mem.GB), nvms[0])
		mesh := remote.NewMesh(e, fabric, nvms)
		agent := mesh.AddAgent(0, 1, remote.Config{Scheme: remote.AsyncBurst})
		var store *core.Store
		e.Go("life1", func(p *sim.Proc) {
			store = core.NewStore(k.Attach("rank0"), core.Options{})
			agent.Register(store)
			app, err := workload.Setup(p, store, spec)
			if err != nil {
				panic(err)
			}
			_ = app
			store.ChkptAll(p)
			agent.TriggerRemote(p).Await(p)
			agent.Stop()
		})
		e.Run()
		out.BuddyFootprint = nvms[1].Used
		out.BuddyShip = int64(fabric.Bytes(interconnect.ClassCkpt))

		// The stopped agent still routes Fetch to the buddy.
		k.HardFail()
		e.Go("recover", func(p *sim.Proc) {
			s := core.NewStore(k.Attach("rank0"), core.Options{})
			app, err := workload.Setup(p, s, spec)
			if err != nil {
				panic(err)
			}
			start := p.Now()
			for _, c := range app.Chunks {
				if c.Restored {
					continue
				}
				data, _, _, ok := mesh.Fetch(p, 0, "rank0", c.ID)
				if !ok {
					panic("buddy copy missing")
				}
				if err := s.AdoptRemote(p, c, data); err != nil {
					panic(err)
				}
			}
			out.BuddyRecover = p.Now() - start
		})
		e.Run()
	}

	// --- XOR parity group --------------------------------------------------
	{
		e := sim.NewEnv()
		nodes := members + 1
		fabric := interconnect.New(e, nodes, 0)
		nvms := make([]*mem.Device, nodes)
		kernels := make([]*nvmkernel.Kernel, nodes)
		for i := range nvms {
			nvms[i] = mem.NewPCM(e, 16*mem.GB)
			kernels[i] = nvmkernel.New(e, mem.NewDRAM(e, 16*mem.GB), nvms[i])
		}
		memberIDs := make([]int, members)
		for i := range memberIDs {
			memberIDs[i] = i
		}
		g := erasure.NewGroup(e, fabric, nvms, memberIDs, members)
		e.Go("life1", func(p *sim.Proc) {
			for i := 0; i < members; i++ {
				s := core.NewStore(kernels[i].Attach(fmt.Sprintf("rank%d", i)), core.Options{})
				app, err := workload.Setup(p, s, spec)
				if err != nil {
					panic(err)
				}
				_ = app
				s.ChkptAll(p)
				g.Register(i, s)
			}
			if err := g.CommitParity(p); err != nil {
				panic(err)
			}
		})
		e.Run()
		// Footprint per protected node: the parity total divided by G.
		out.ParityFootprint = g.RemoteFootprint() / int64(members) * 1 // per node share
		out.ParityShip = g.ShipBytes / int64(members)

		kernels[0].HardFail()
		e.Go("recover", func(p *sim.Proc) {
			s := core.NewStore(kernels[0].Attach("rank0"), core.Options{})
			if _, err := workload.Setup(p, s, spec); err != nil {
				panic(err)
			}
			start := p.Now()
			if err := g.Reconstruct(p, 0, []*core.Store{s}); err != nil {
				panic(err)
			}
			out.ParityRecover = p.Now() - start
		})
		e.Run()
	}
	return out
}

// PrintRedundancy renders the comparison.
func PrintRedundancy(w io.Writer, r RedundancyResult) {
	fmt.Fprintf(w, "== Remote redundancy: buddy replication vs %d-member XOR parity ==\n", r.Members)
	fmt.Fprintf(w, "checkpoint data per node: %s\n", report.FmtBytes(float64(r.CkptPerND)))
	tb := &report.Table{Header: []string{"scheme", "remote NVM / protected node", "fabric bytes / round / node", "hard-failure recovery"}}
	tb.AddRow("buddy replication",
		report.FmtBytes(float64(r.BuddyFootprint)),
		report.FmtBytes(float64(r.BuddyShip)),
		r.BuddyRecover.Round(time.Millisecond).String(),
	)
	tb.AddRow(fmt.Sprintf("XOR parity (G=%d)", r.Members),
		report.FmtBytes(float64(r.ParityFootprint)),
		report.FmtBytes(float64(r.ParityShip)),
		r.ParityRecover.Round(time.Millisecond).String(),
	)
	tb.Write(w)
	fmt.Fprintln(w, "(parity divides remote memory by G but multiplies recovery traffic by G —")
	fmt.Fprintln(w, " the trade-off behind the paper's choice of plain buddy copies at 2x memory)")
}
