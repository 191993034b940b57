// Archive & share: the §IV-b workflow. Researchers share trained
// checkpoints in general formats; Portus keeps training checkpoints
// serialization-free on PMem and pays the serialization cost only when
// archiving one out — off the training path, on the daemon.
//
// This example trains briefly, archives the newest version through the
// daemon's DUMP path into a portable container file, then reloads and
// verifies that container independently of Portus.
package main

import (
	"bytes"
	"fmt"
	"log"
	"net"
	"os"

	portus "github.com/portus-sys/portus"
	"github.com/portus-sys/portus/internal/serialize"
	"github.com/portus-sys/portus/internal/sim"
	"github.com/portus-sys/portus/internal/wire"
)

func main() {
	srv, err := portus.NewServer(portus.ServerConfig{
		PMemBytes: 256 << 20, MetaBytes: 16 << 20, Materialized: true,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer srv.Close()
	go srv.Serve()

	job, err := portus.NewJob(portus.JobConfig{
		ServerCtrlAddr:   srv.CtrlAddr,
		ServerFabricAddr: srv.FabricAddr,
		GPUMemBytes:      128 << 20,
		Materialized:     true,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer job.Close()

	spec, err := portus.ModelByName("mobilenet_v2")
	if err != nil {
		log.Fatal(err)
	}
	m, err := job.RegisterModel(spec)
	if err != nil {
		log.Fatal(err)
	}
	defer m.Close()

	// Checkpoint a few training steps; only tensor payloads move, no
	// serialization anywhere.
	for iter := uint64(1); iter <= 3; iter++ {
		m.ApplyUpdate(iter * 100)
		if err := m.Checkpoint(job.Env(), iter*100); err != nil {
			log.Fatal(err)
		}
	}
	fmt.Println("trained and checkpointed 3 versions (serialization-free)")

	// Archive the newest version via the daemon's DUMP path — the one
	// place Portus serializes, and it runs on the storage server.
	sock, err := net.Dial("tcp", srv.CtrlAddr)
	if err != nil {
		log.Fatal(err)
	}
	conn := wire.NewNetConn(sock)
	env := sim.NewRealEnv()
	resp, err := wire.Call(env, conn, &wire.Msg{Type: wire.TDump, Model: spec.Name}, wire.TDumpResp)
	if err != nil {
		log.Fatal(err)
	}
	out := "mobilenet_v2.ckpt"
	if err := os.WriteFile(out, resp.Payload, 0o644); err != nil {
		log.Fatal(err)
	}
	defer os.Remove(out)
	fmt.Printf("archived iteration %d to %s (%.1f MiB container)\n",
		resp.Iteration, out, float64(len(resp.Payload))/(1<<20))

	// A collaborator — any tool speaking the container format — loads
	// and validates it without Portus.
	f, err := os.Open(out)
	if err != nil {
		log.Fatal(err)
	}
	defer f.Close()
	ckpt, err := serialize.Decode(f)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("collaborator decoded %s @ iteration %d: %d tensors, %.1f MiB payload\n",
		ckpt.Model, ckpt.Iteration, len(ckpt.Tensors), float64(ckpt.PayloadBytes())/(1<<20))

	// Verify the archived weights equal the GPU-resident ones.
	for i, blob := range ckpt.Tensors {
		want := m.Placed().GPU.Mem().Bytes(m.Placed().Offs[i], blob.Meta.Size)
		if !bytes.Equal(blob.Data, want) {
			log.Fatalf("tensor %d differs between archive and GPU", i)
		}
	}
	fmt.Println("every archived tensor verified byte-identical to the GPU state")
}
