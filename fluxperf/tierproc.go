package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"sync/atomic"
	"time"

	"flux/internal/shard"
	"flux/internal/xmark"
)

// served-mix runs its serving tier in a child process of the benchmark
// binary (fluxperf --tier), so the load generator never waits for the
// system under test's goroutines to yield the CPU: the operating system,
// not one Go scheduler, decides when each runs. The child measures its
// own set-up and heap and answers commands, one JSON line per command,
// until its standard input closes.

// servedDocs are the document names the tier serves, one per shard.
var servedDocs = []string{"x0", "x1"}

// tier is one running serving tier: two embedded shard workers, one
// document each, behind a router listening on loopback.
type tier struct {
	workers []*shard.EmbeddedShard
	rt      *shard.Router
	hs      *http.Server
	served  chan struct{} // closed when the router's Serve returns
	base    string
}

func startTier(specs []shard.DocSpec) (*tier, error) {
	m, err := shard.NewMapFromPlacement(map[string][]int{"x0": {0}, "x1": {1}}, 2)
	if err != nil {
		return nil, err
	}
	workers, err := shard.SpawnEmbedded(m, specs, shard.EmbeddedOptions{})
	if err != nil {
		return nil, err
	}
	t := &tier{workers: workers}
	if t.rt, err = shard.NewRouter(shard.RouterOptions{Map: m, Shards: shard.Addrs(workers), HealthInterval: -1}); err != nil {
		t.close()
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.close()
		return nil, err
	}
	t.base = "http://" + ln.Addr().String()
	t.hs = &http.Server{Handler: t.rt}
	t.served = make(chan struct{})
	go func() {
		defer close(t.served)
		t.hs.Serve(ln)
	}()
	return t, nil
}

func (t *tier) close() {
	if t.hs != nil {
		t.hs.Close()
		<-t.served
	}
	if t.rt != nil {
		t.rt.Close()
	}
	for _, w := range t.workers {
		w.Close()
	}
}

// servedSeed derives the seed of served document i from the run's seed.
func servedSeed(seed int64, i int) int64 { return seed + int64(i)<<32 }

// servedSpecs generates (or reuses) the served documents and the DTD file
// the workers read.
func servedSpecs(dir string, seed int64) ([]shard.DocSpec, error) {
	dtdPath := filepath.Join(dir, "xmark.dtd")
	if err := os.WriteFile(dtdPath, []byte(xmark.DTD), 0o644); err != nil {
		return nil, err
	}
	var specs []shard.DocSpec
	for i, name := range servedDocs {
		doc, err := loadDocument(dir, servedMB, servedSeed(seed, i))
		if err != nil {
			return nil, err
		}
		specs = append(specs, shard.DocSpec{Name: name, DocPath: doc.path, DTDPath: dtdPath})
	}
	return specs, nil
}

// tierHello is the child's first line: where the tier listens and how
// long its set-up took (median of setupRepeats).
type tierHello struct {
	Base         string   `json:"base"`
	Workers      []string `json:"workers"`
	SetupSeconds float64  `json:"setup_s"`
}

// tierStats answers the "stats" command.
type tierStats struct {
	Hits       int64 `json:"hits"`
	Lookups    int64 `json:"lookups"`
	MaxWaiting int64 `json:"max_waiting"`
}

// tierMain is the child process: it spawns the tier and serves commands
// from standard input until it closes. "heap-start" and "heap-stop"
// bracket a memory pass (peakHeap) and reply with its peak; "stats" reports the workers' compiled
// query cache and the most admission waiters seen, sampled every
// millisecond when watch is set.
func tierMain(dir string, seed int64, watch bool) error {
	specs, err := servedSpecs(dir, seed)
	if err != nil {
		return err
	}
	setup, err := timeSetup(func() (func(), error) {
		t, err := startTier(specs)
		if err != nil {
			return nil, err
		}
		return t.close, nil
	})
	if err != nil {
		return err
	}
	t, err := startTier(specs)
	if err != nil {
		return err
	}
	defer t.close()

	var maxWaiting atomic.Int64
	stop := make(chan struct{})
	sampled := make(chan struct{})
	go func() {
		defer close(sampled)
		if !watch {
			return
		}
		tick := time.NewTicker(time.Millisecond)
		defer tick.Stop()
		for {
			for _, w := range t.workers {
				if n := w.Worker().Catalog().AdmissionStats().Waiting; n > maxWaiting.Load() {
					maxWaiting.Store(n)
				}
			}
			select {
			case <-stop:
				return
			case <-tick.C:
			}
		}
	}()
	defer func() {
		close(stop)
		<-sampled
	}()

	out := json.NewEncoder(os.Stdout)
	hello := tierHello{Base: t.base, SetupSeconds: setup.Seconds()}
	for _, w := range t.workers {
		hello.Workers = append(hello.Workers, w.Addr)
	}
	if err := out.Encode(hello); err != nil {
		return err
	}
	in := bufio.NewScanner(os.Stdin)
	for in.Scan() {
		var reply any
		switch cmd := in.Text(); cmd {
		case "heap-start":
			// The acknowledgement goes out once the memory pass is set
			// up; the pass lasts until the parent sends heap-stop.
			peak, err := peakHeap(func() error {
				if err := out.Encode(struct{}{}); err != nil {
					return err
				}
				if !in.Scan() || in.Text() != "heap-stop" {
					return errors.New("tier: memory pass not ended by heap-stop")
				}
				return nil
			})
			if err != nil {
				return err
			}
			reply = map[string]uint64{"peak": peak}
		case "stats":
			var st tierStats
			for _, w := range t.workers {
				cs := w.Worker().Catalog().CacheStats()
				st.Hits += cs.Hits
				st.Lookups += cs.Hits + cs.Misses
			}
			st.MaxWaiting = maxWaiting.Load()
			reply = st
		default:
			return fmt.Errorf("tier: unknown command %q", cmd)
		}
		if err := out.Encode(reply); err != nil {
			return err
		}
	}
	return in.Err()
}

// tierProc is the parent's handle on the tier child.
type tierProc struct {
	cmd   *exec.Cmd
	in    io.WriteCloser
	out   *json.Decoder
	hello tierHello
}

// startTierProc starts the tier child for e's seed and waits for its
// hello line.
func startTierProc(e env) (*tierProc, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(exe, "--tier", "--dir", e.dir, "--seed", strconv.FormatInt(e.seed, 10),
		"--trace", map[bool]string{false: "0", true: "1"}[e.trace])
	cmd.Stderr = os.Stderr
	in, err := cmd.StdinPipe()
	if err != nil {
		return nil, err
	}
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	p := &tierProc{cmd: cmd, in: in, out: json.NewDecoder(out)}
	if err := p.out.Decode(&p.hello); err != nil {
		p.close()
		return nil, fmt.Errorf("tier child: %w", err)
	}
	return p, nil
}

// call sends one command and decodes its reply.
func (p *tierProc) call(cmd string, reply any) error {
	if _, err := fmt.Fprintln(p.in, cmd); err != nil {
		return fmt.Errorf("tier child: %w", err)
	}
	if err := p.out.Decode(reply); err != nil {
		return fmt.Errorf("tier child %s: %w", cmd, err)
	}
	return nil
}

// peakHeap runs fn while the child is in its memory pass and returns the
// child's peak live heap.
func (p *tierProc) peakHeap(fn func()) (uint64, error) {
	var ack struct{}
	if err := p.call("heap-start", &ack); err != nil {
		return 0, err
	}
	fn()
	var reply struct{ Peak uint64 }
	err := p.call("heap-stop", &reply)
	return reply.Peak, err
}

// close ends the child by closing its input and waits for it to exit.
func (p *tierProc) close() error {
	p.in.Close()
	return p.cmd.Wait()
}
