package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"sync"
	"time"

	"sweepsched"
	"sweepsched/internal/rng"
	"sweepsched/internal/service"
)

// Request classes of the service mix.
const (
	classHot       = iota // repeat of a hot schedule: schedule-tier hit
	classNewSeed          // new schedule seed on a hot mesh: family hit, schedule miss
	classNewMesh          // a mesh never seen before: every tier misses
	classTransport        // /v1/transport on a hot schedule
	numClasses
)

var classNames = [numClasses]string{"hot", "new-seed", "new-mesh", "transport"}

// svcBlock is one block of the request mix, by class. Each client walks
// seeded shuffles of it, so every completed block has exactly these
// proportions. Latencies sort hot (well under 1 ms) < new seed (a
// schedule build) < new mesh (every tier built) < transport (a serial
// solve), so the median falls inside the new-mesh cluster and the 90th
// percentile inside the transport cluster. A median among the hits would
// sit in their tail, which follows how often the other client is
// building at that moment rather than the code.
var svcBlock = [numClasses]int{classHot: 8, classNewSeed: 1, classNewMesh: 3, classTransport: 8}

// svcClients is the number of closed-loop clients.
const svcClients = 2

// svcTransport is the physics of every /v1/transport request.
var svcTransport = sweepsched.TransportConfig{SigmaT: 1, SigmaS: 0.5, Source: 1}

// hotEntry is one hot schedule with its in-process reference result.
type hotEntry struct {
	req     service.ScheduleRequest
	res     *sweepsched.Result
	iters   int
	fluxSum float64
}

// servicePhase drives an in-process sweepschedd over loopback.
type servicePhase struct {
	srv    *service.Server
	hs     *http.Server
	served chan error
	url    string
	client *http.Client

	hotProbs []*sweepsched.Problem // one per hot mesh
	hot      []hotEntry            // two per hot mesh

	clients []*client
	before  *service.StatsResponse // daemon stats when set-up ended
	n       int
	elapsed time.Duration // wall time of the bursts
}

func (*servicePhase) name() string { return "service" }

func (ph *servicePhase) ops() int { return ph.n }

// minOps is one burst: every client sends one block of the mix.
func (*servicePhase) minOps(*run) int { return 1 }

func (ph *servicePhase) close() {
	if ph.hs == nil {
		return
	}
	ph.client.CloseIdleConnections()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	ph.srv.BeginDrain()
	_ = ph.hs.Shutdown(ctx) // the run is over; a slow drain only delays exit
	<-ph.served
	ph.hs = nil
}

func scheduleRequest(cfg config, meshSeed, seed uint64) service.ScheduleRequest {
	return service.ScheduleRequest{
		Mesh:       service.MeshSpec{Family: meshFamily, Scale: cfg.svcScale, Seed: meshSeed},
		Directions: cfg.svcK,
		Procs:      cfg.svcM,
		Scheduler:  string(sweepsched.RandomDelaysPriority),
		BlockSize:  64,
		Seed:       seed,
	}
}

// reference schedules req in process, as the daemon should have.
func reference(p *sweepsched.Problem, req service.ScheduleRequest) (*sweepsched.Result, error) {
	return p.Schedule(sweepsched.Scheduler(req.Scheduler), sweepsched.ScheduleOptions{BlockSize: req.BlockSize, Seed: req.Seed})
}

func sameSchedule(got *service.ScheduleResponse, want *sweepsched.Result) error {
	if got.Makespan != want.Metrics.Makespan || got.C1 != want.Metrics.C1 || got.C2 != want.Metrics.C2 ||
		math.Float64bits(got.Ratio) != math.Float64bits(want.Ratio) {
		return fmt.Errorf("daemon answered makespan %d C1 %d C2 %d ratio %v, in-process %d %d %d %v",
			got.Makespan, got.C1, got.C2, got.Ratio,
			want.Metrics.Makespan, want.Metrics.C1, want.Metrics.C2, want.Ratio)
	}
	return nil
}

func (ph *servicePhase) setup(r *run) error {
	cfg := r.cfg
	// One worker per request: with two clients on two CPUs a build then
	// leaves a CPU for the other client, as a daemon sized for concurrent
	// requests would.
	ph.srv = service.New(service.Config{CacheBytes: cfg.svcCache, Verify: true, VerifyEvery: 4, Workers: 1})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	ph.hs = &http.Server{Handler: ph.srv.Handler()}
	ph.served = make(chan error, 1)
	go func() { ph.served <- ph.hs.Serve(ln) }()
	ph.url = "http://" + ln.Addr().String()
	ph.client = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: svcClients}}

	// The hot set: its references are computed in process, then each
	// hot schedule is requested once so the daemon's cache holds it.
	for h := 0; h < cfg.svcHot; h++ {
		meshSeed := derive(cfg.seed, "svc-hot-mesh", h)
		p, err := sweepsched.NewProblemFromFamily(meshFamily, cfg.svcScale, cfg.svcK, cfg.svcM, meshSeed)
		if err != nil {
			return err
		}
		ph.hotProbs = append(ph.hotProbs, p)
		for s := 0; s < 2; s++ {
			req := scheduleRequest(cfg, meshSeed, derive(cfg.seed, "svc-hot-sched", 2*h+s))
			res, err := reference(p, req)
			if err != nil {
				return err
			}
			tres, err := p.SolveTransport(res, svcTransport)
			if err != nil {
				return err
			}
			ph.hot = append(ph.hot, hotEntry{req: req, res: res, iters: tres.Iterations, fluxSum: fluxSum(tres.Phi)})
		}
	}
	for _, e := range ph.hot {
		var resp service.ScheduleResponse
		if err := ph.post("/v1/schedule", e.req, &resp); err != nil {
			return err
		}
		if err := sameSchedule(&resp, e.res); err != nil {
			return err
		}
	}
	ph.clients = nil
	for c := 0; c < svcClients; c++ {
		ph.clients = append(ph.clients, &client{c: c, r: rng.New(derive(cfg.seed, "svc-client", c))})
	}
	ph.before, err = ph.stats()
	return err
}

// fluxSum adds the flux in cell order, as the daemon does.
func fluxSum(phi []float64) float64 {
	sum := 0.0
	for _, x := range phi {
		sum += x
	}
	return sum
}

func (ph *servicePhase) post(path string, body, out any) error {
	buf, err := json.Marshal(body)
	if err != nil {
		return err
	}
	req, err := http.NewRequest(http.MethodPost, ph.url+path, bytes.NewReader(buf))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	return ph.do(req, out)
}

func (ph *servicePhase) do(req *http.Request, out any) error {
	resp, err := ph.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%s %s: status %d: %s", req.Method, req.URL.Path, resp.StatusCode, bytes.TrimSpace(body))
	}
	return json.Unmarshal(body, out)
}

func (ph *servicePhase) stats() (*service.StatsResponse, error) {
	req, err := http.NewRequest(http.MethodGet, ph.url+"/v1/stats", nil)
	if err != nil {
		return nil, err
	}
	var st service.StatsResponse
	return &st, ph.do(req, &st)
}

// svcResult is one completed request, kept for checks that need an
// in-process build after the timed loop.
type svcResult struct {
	class   int
	hot     int // hot index (hot, new-seed and transport classes)
	req     service.ScheduleRequest
	resp    service.ScheduleResponse
	latency float64
	err     error
}

// client is one closed-loop client: seeded shuffles of svcBlock, with
// its own new seeds and new meshes.
type client struct {
	c       int
	r       *rng.Source
	j       int   // requests sent
	block   []int // classes left in the current block
	results []svcResult
}

// next returns the next request's class and hot index.
func (cl *client) next(hotLen int) (class, hot int) {
	if len(cl.block) == 0 {
		for c, n := range svcBlock {
			for k := 0; k < n; k++ {
				cl.block = append(cl.block, c)
			}
		}
		cl.r.Shuffle(len(cl.block), func(a, b int) { cl.block[a], cl.block[b] = cl.block[b], cl.block[a] })
	}
	class, cl.block = cl.block[0], cl.block[1:]
	return class, cl.r.Intn(hotLen)
}

func (ph *servicePhase) request(cfg config, cl *client) svcResult {
	class, h := cl.next(len(ph.hot))
	j := cl.j
	cl.j++
	out := svcResult{class: class, hot: h}
	tag := fmt.Sprintf("svc-client%d", cl.c)
	t0 := time.Now()
	switch class {
	case classHot:
		out.req = ph.hot[h].req
		out.err = ph.post("/v1/schedule", out.req, &out.resp)
	case classNewSeed:
		out.req = ph.hot[h].req
		out.req.Seed = derive(cfg.seed, tag+"-newseed", j)
		out.err = ph.post("/v1/schedule", out.req, &out.resp)
	case classNewMesh:
		out.req = scheduleRequest(cfg, derive(cfg.seed, tag+"-newmesh", j), derive(cfg.seed, tag+"-newmesh-sched", j))
		out.err = ph.post("/v1/schedule", out.req, &out.resp)
	case classTransport:
		out.req = ph.hot[h].req
		var tr service.TransportResponse
		out.err = ph.post("/v1/transport", service.TransportRequest{
			Schedule: out.req, SigmaT: svcTransport.SigmaT, SigmaS: svcTransport.SigmaS, Source: svcTransport.Source,
		}, &tr)
		if out.err == nil && (tr.Iterations != ph.hot[h].iters || math.Float64bits(tr.FluxSum) != math.Float64bits(ph.hot[h].fluxSum)) {
			out.err = fmt.Errorf("daemon solve: %d iterations flux sum %v, in-process %d %v",
				tr.Iterations, tr.FluxSum, ph.hot[h].iters, ph.hot[h].fluxSum)
		}
		out.resp = tr.Schedule
	}
	out.latency = time.Since(t0).Seconds()
	return out
}

// check compares a response with the in-process result for the same
// request: hot schedules against the set-up references, new seeds and
// new meshes against fresh in-process builds.
func (ph *servicePhase) check(cfg config, res svcResult) error {
	if res.err != nil {
		return res.err
	}
	switch res.class {
	case classHot, classTransport:
		return sameSchedule(&res.resp, ph.hot[res.hot].res)
	case classNewSeed:
		want, err := reference(ph.hotProbs[res.hot/2], res.req)
		if err != nil {
			return err
		}
		return sameSchedule(&res.resp, want)
	default:
		p, err := sweepsched.NewProblemFromFamily(meshFamily, cfg.svcScale, cfg.svcK, cfg.svcM, res.req.Mesh.Seed)
		if err != nil {
			return err
		}
		want, err := reference(p, res.req)
		if err != nil {
			return err
		}
		return sameSchedule(&res.resp, want)
	}
}

// step is one burst: every client sends one block of the mix, each
// waiting for a reply before its next request.
func (ph *servicePhase) step(r *run) {
	ph.n++
	blockLen := 0
	for _, n := range svcBlock {
		blockLen += n
	}
	var wg sync.WaitGroup
	t0 := time.Now()
	for _, cl := range ph.clients {
		wg.Add(1)
		go func(cl *client) {
			defer wg.Done()
			for k := 0; k < blockLen; k++ {
				cl.results = append(cl.results, ph.request(r.cfg, cl))
			}
		}(cl)
	}
	wg.Wait()
	ph.elapsed += time.Since(t0)
}

func (ph *servicePhase) finish(r *run) {
	after, err := ph.stats()
	if !r.op("service stats", err) {
		return
	}
	var lat []float64
	var byClass [numClasses][]float64
	for _, cl := range ph.clients {
		for _, res := range cl.results {
			if r.op("service request", ph.check(r.cfg, res)) {
				lat = append(lat, res.latency)
				byClass[res.class] = append(byClass[res.class], res.latency)
			}
		}
	}
	for c, xs := range byClass {
		fmt.Fprintf(r.out, "service %-10s %5d requests  p50 %.3gs  p90 %.3gs\n", classNames[c], len(xs), percentile(xs, 0.5), percentile(xs, 0.9))
	}
	if !r.traced {
		r.m["req_p50_s"] = percentile(lat, 0.5)
		r.m["req_p90_s"] = percentile(lat, 0.9)
		r.m["req_per_s"] = float64(len(lat)) / ph.elapsed.Seconds()
		return
	}
	before := ph.before
	hitRatio := func(b, a service.TierStats) float64 {
		hits, misses := a.Hits-b.Hits, a.Misses-b.Misses
		if hits+misses == 0 {
			return 0
		}
		return float64(hits) / float64(hits+misses)
	}
	r.m["service.cache.skeleton.hit_ratio"] = hitRatio(before.Cache.Skeletons, after.Cache.Skeletons)
	r.m["service.cache.family.hit_ratio"] = hitRatio(before.Cache.Families, after.Cache.Families)
	r.m["service.cache.schedule.hit_ratio"] = hitRatio(before.Cache.Schedules, after.Cache.Schedules)
	r.m["service.cache.evictions"] = float64(
		after.Cache.Skeletons.Evictions - before.Cache.Skeletons.Evictions +
			after.Cache.Families.Evictions - before.Cache.Families.Evictions +
			after.Cache.Schedules.Evictions - before.Cache.Schedules.Evictions)
	r.m["service.admission.wait_s"] = timerMean(before, after, "service.admission.wait")
	r.m["service.flight.coalesced"] = float64(after.Metrics.CounterValue("service.flight.coalesced") -
		before.Metrics.CounterValue("service.flight.coalesced"))
	r.m["service.build.schedule_s"] = timerMean(before, after, "service.build.schedule.time")
	r.m["service.solve.transport_s"] = timerMean(before, after, "service.solve.transport.time")
}

// timerMean is the mean observation of a daemon timer between two stats
// snapshots (0 when it observed nothing).
func timerMean(before, after *service.StatsResponse, name string) float64 {
	find := func(st *service.StatsResponse) (int64, int64) {
		for _, t := range st.Metrics.Timers {
			if t.Name == name {
				return t.Count, t.TotalNanos
			}
		}
		return 0, 0
	}
	c0, n0 := find(before)
	c1, n1 := find(after)
	if c1 == c0 {
		return 0
	}
	return time.Duration((n1 - n0) / (c1 - c0)).Seconds()
}
