package main

import (
	"context"
	"errors"
	"fmt"
	"io/fs"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"time"

	"securearchive/internal/api"
	"securearchive/internal/api/client"
	"securearchive/internal/cluster"
	"securearchive/internal/core"
	"securearchive/internal/monitor"
	"securearchive/internal/obs"
	"securearchive/internal/obs/trace"
	"securearchive/internal/store"
	"securearchive/internal/store/diskstore"
)

// The deployment under test: AONT-RS 4-of-8 (the Figure 1 geometry) on
// an 8-node disk cluster, driven by a closed loop of two clients.
const (
	shardsNeeded  = 4
	shardsTotal   = 8
	numClients    = 2
	fsyncPolicy   = diskstore.FsyncCommit
	minGroupBits  = 2048
	shutdownGrace = 10 * time.Second
)

// checkProduction refuses a configuration below production parameters:
// a commitment group under 2048 bits or a store that does not fsync at
// every commit would make the numbers describe something nobody
// deploys.
func checkProduction(groupBits int, fsync string) error {
	if groupBits < minGroupBits {
		return fmt.Errorf("refusing to run: commitment group is %d bits, production needs at least %d", groupBits, minGroupBits)
	}
	if fsync != diskstore.FsyncCommit {
		return fmt.Errorf("refusing to run: store fsync policy is %q, production needs %q", fsync, diskstore.FsyncCommit)
	}
	return nil
}

// deployment is one running archive service, assembled the way
// `archivectl serve` assembles it (isolated registry and an enabled
// tracer, monitor plane mounted, no quota, no rate limit), over a disk
// cluster in its own directory, plus the clients that drive it over
// loopback HTTP.
type deployment struct {
	dir       string
	cluster   *cluster.Cluster
	vault     *core.Vault
	reg       *obs.Registry
	srv       *http.Server
	served    chan error
	stopMon   chan struct{}
	transport *http.Transport
	clients   [numClients]*client.Client
	// probe holds the per-layer decorators; nil on end-to-end runs,
	// which run the program without them.
	probe *probe
}

// deploy starts a service over a fresh directory under workdir. With
// traced set, the encoding, the store and the handler are wrapped in the
// benchmark's timing decorators and a span exporter is registered.
func deploy(workdir string, w *workload, traced bool) (d *deployment, err error) {
	if err := os.MkdirAll(workdir, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(workdir, w.name+"-")
	if err != nil {
		return nil, err
	}
	d = &deployment{dir: dir}
	defer func() {
		if err != nil {
			d.close()
			d = nil
		}
	}()

	cfg := store.Config{Backend: store.BackendDisk, Dir: dir, Fsync: fsyncPolicy}
	var enc core.Encoding = core.AONTRS{K: shardsNeeded, N: shardsTotal}
	if traced {
		d.probe = newProbe()
		bk, err := cluster.OpenStore(cfg, shardsTotal)
		if err != nil {
			return d, err
		}
		d.cluster = cluster.NewWithStore(d.probe.wrapStore(bk), nil)
		enc = d.probe.wrapEncoding(enc)
	} else if d.cluster, err = cluster.Open(shardsTotal, nil, cfg); err != nil {
		return d, err
	}

	d.reg = obs.NewRegistry()
	d.cluster.UseRegistry(d.reg)
	tr := trace.New(d.reg)
	tr.SetEnabled(true)
	if traced {
		tr.AddExporter(d.probe.spans)
	}
	vopts := []core.VaultOption{core.WithRegistry(d.reg), core.WithTracer(tr)}
	if w.cacheBytes > 0 {
		vopts = append(vopts, core.WithReadCache(w.cacheBytes))
	}
	if d.vault, err = core.NewVault(d.cluster, enc, vopts...); err != nil {
		return d, err
	}
	if err := checkProduction(d.vault.Group.P.BitLen(), cfg.Fsync); err != nil {
		return d, err
	}

	mon := &monitor.Server{Vault: d.vault, Cluster: d.cluster, Registry: d.reg, Tracer: tr}
	svc := api.NewServer(d.vault, api.Config{Registry: d.reg, Tracer: tr, Monitor: mon})
	mon.SLO = svc.SLOTable()
	mon.EnableWindowedHealth(0, 0)
	d.stopMon = make(chan struct{})
	mon.StartHealthSampler(d.stopMon, 0)

	var h http.Handler = svc.Handler()
	if traced {
		h = d.probe.wrapHandler(h)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return d, err
	}
	d.srv = &http.Server{Handler: h, ReadHeaderTimeout: 5 * time.Second, IdleTimeout: 60 * time.Second}
	d.served = make(chan error, 1)
	go func() { d.served <- d.srv.Serve(ln) }()

	d.transport = http.DefaultTransport.(*http.Transport).Clone()
	d.transport.Proxy = nil
	d.transport.MaxIdleConnsPerHost = numClients
	for i := range d.clients {
		c := client.New("http://" + ln.Addr().String())
		c.HTTPClient = &http.Client{Transport: d.transport}
		// The clients stand for separate processes, whose default
		// tracer is off: no client spans, no traceparent header.
		c.Tracer = trace.New(nil)
		d.clients[i] = c
	}
	return d, nil
}

// diskBytes sums the sizes of the files the store holds on disk.
func (d *deployment) diskBytes() (int64, error) {
	var total int64
	err := filepath.WalkDir(d.dir, func(_ string, e fs.DirEntry, err error) error {
		if err != nil || !e.Type().IsRegular() {
			return err
		}
		info, err := e.Info()
		if err == nil {
			total += info.Size()
		}
		return err
	})
	return total, err
}

// close stops the service, closes the store and removes its directory.
func (d *deployment) close() error {
	var errs []error
	if d.srv != nil {
		ctx, cancel := context.WithTimeout(context.Background(), shutdownGrace)
		if err := d.srv.Shutdown(ctx); err != nil {
			errs = append(errs, err)
		}
		cancel()
		if err := <-d.served; err != nil && !errors.Is(err, http.ErrServerClosed) {
			errs = append(errs, err)
		}
	}
	if d.transport != nil {
		d.transport.CloseIdleConnections()
	}
	if d.stopMon != nil {
		close(d.stopMon)
	}
	if d.cluster != nil {
		if err := d.cluster.Close(); err != nil {
			errs = append(errs, err)
		}
	}
	if err := os.RemoveAll(d.dir); err != nil {
		errs = append(errs, err)
	}
	return errors.Join(errs...)
}
