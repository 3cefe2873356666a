// Package live is the live-swarm lab: it provisions real BitTorrent
// swarms — one loopback HTTP tracker plus N instrumented internal/client
// peers per swarm — and harvests the same trace.Collector instrumentation
// the discrete-event simulator produces, so real-TCP runs flow through the
// identical report/aggregation pipeline and cross-validate the simulator's
// conclusions, the way the paper's own evidence came from an instrumented
// real client rather than a model.
//
// One designated leecher per swarm (the last to arrive, mirroring the
// simulator's late-joining local peer) carries the collector; the lab's
// global-availability callback gives its snapshots the torrent-wide
// counters (min copies, rare pieces) that only the orchestrator can see.
package live

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"net"
	"net/http"
	"os"
	"sync"
	"time"

	"rarestfirst/internal/adversary"
	"rarestfirst/internal/client"
	"rarestfirst/internal/metainfo"
	"rarestfirst/internal/netem"
	"rarestfirst/internal/obs"
	"rarestfirst/internal/scenario"
	"rarestfirst/internal/trace"
	"rarestfirst/internal/tracker"
)

// Config is the fully resolved parameterization of one live swarm.
type Config struct {
	Label     string
	TorrentID int
	// Seed drives content generation and every client's identity/choke
	// RNG; a fixed seed reproduces everything but real-TCP timing.
	Seed int64

	NumPieces int
	PieceSize int // bytes; a multiple of the 16 KiB block size

	// Leechers is the leecher count including the instrumented local
	// peer; the swarm additionally has one initial seed.
	Leechers int

	SeedUploadBps float64
	PeerUploadBps float64

	ChokeInterval time.Duration
	SampleEvery   time.Duration
	// Stagger is the arrival spacing between successive leechers; the
	// instrumented local peer arrives last.
	Stagger time.Duration
	// Deadline bounds the swarm's wall-clock lifetime. A swarm whose
	// local peer has not finished by then reports LocalCompleted false.
	Deadline time.Duration
	// Linger keeps the swarm up after everyone finished so residency and
	// seed-state intervals accumulate past the residency filter.
	Linger time.Duration
	// SeedStopAfter, when positive, stops the initial seed that long
	// after swarm start — the live twin of the seed-failure injection.
	SeedStopAfter time.Duration

	// MinResidency is the collector's residency filter in seconds (live
	// swarms live wall-clock seconds, not the paper's hours).
	MinResidency float64

	// Perturbations are the fault plan, crash plan and adversary model
	// the swarm runs under (scenario.Spec.Perturbations); a zero member
	// is off. Fractional timing is anchored to Deadline, and every
	// schedule derives from the run seed (see Run and applyResilience).
	Perturbations scenario.Perturbations
}

// Defaults for FromSpec, exported so tests and docs agree with the code.
// Upload caps are deliberately far below loopback capacity: the paper's
// dynamics (choke rotation, reciprocation, interest churn) only appear
// when a transfer spans many choke rounds, so the default geometry makes
// a swarm last roughly 15-20 rounds rather than one.
const (
	DefaultPeers      = 5
	DefaultContentMB  = 1
	DefaultPieces     = 32
	DefaultDeadlineS  = 90
	DefaultSeedUpBps  = 512 << 10
	DefaultPeerUpBps  = 256 << 10
	DefaultResidencyS = 0.5
)

// FromSpec resolves a scenario spec onto a live swarm configuration. The
// spec's Scale is read at wall-clock granularity (Duration = deadline in
// real seconds); unsupported ablation switches are rejected rather than
// silently ignored, because a live run that silently dropped its ablation
// would masquerade as a valid twin.
func FromSpec(sp scenario.Spec) (Config, error) {
	switch {
	case sp.Picker != "" && sp.Picker != scenario.PickerRarestFirst:
		return Config{}, fmt.Errorf("live: picker %q not supported (the TCP client runs the paper's rarest-first)", sp.Picker)
	case sp.SeedChoke != "" && sp.SeedChoke != scenario.SeedChokeNew:
		return Config{}, fmt.Errorf("live: seed choker %q not supported live", sp.SeedChoke)
	case sp.LeecherChoke != "" && sp.LeecherChoke != scenario.LeecherChokeStandard:
		return Config{}, fmt.Errorf("live: leecher choker %q not supported live", sp.LeecherChoke)
	case sp.FreeRiderFraction != 0 || sp.LocalFreeRider:
		return Config{}, errors.New("live: free riders not supported live")
	case sp.SmartSeedServe || sp.DisableRandomFirst || sp.BoostNewcomers:
		return Config{}, errors.New("live: policy ablations not supported live")
	case sp.ChurnScale != 0 && sp.ChurnScale != 1:
		return Config{}, errors.New("live: churn scaling not supported live")
	case sp.AbortScale != 0:
		return Config{}, errors.New("live: abort scaling not supported live")
	}

	peers := clampInt(sp.Scale.MaxPeers, DefaultPeers, 3, 32)
	contentMB := clampInt(sp.Scale.MaxContentMB, DefaultContentMB, 1, 8)
	pieces := clampInt(sp.Scale.MaxPieces, DefaultPieces, 8, 256)
	// Piece size: the content split into the requested piece count,
	// rounded up to whole 16 KiB blocks; content is piece-aligned so the
	// geometry stays exact.
	pieceSize := (contentMB << 20) / pieces
	if rem := pieceSize % metainfo.BlockSize; rem != 0 {
		pieceSize += metainfo.BlockSize - rem
	}
	if pieceSize < metainfo.BlockSize {
		pieceSize = metainfo.BlockSize
	}

	deadline := sp.Scale.Duration
	if deadline <= 0 {
		deadline = DefaultDeadlineS
	}
	if deadline > 600 {
		deadline = 600
	}

	base := sp.Scale.Seed
	if sp.SeedOverride != 0 {
		base = sp.SeedOverride
	}
	if base == 0 {
		base = 1
	}

	upScale := sp.SeedUpScale
	if upScale <= 0 {
		upScale = 1
	}

	cfg := Config{
		Label:         sp.Label,
		TorrentID:     sp.TorrentID,
		Seed:          scenario.MixSeed(base, sp.TorrentID),
		NumPieces:     pieces,
		PieceSize:     pieceSize,
		Leechers:      peers - 1,
		SeedUploadBps: DefaultSeedUpBps * upScale,
		PeerUploadBps: DefaultPeerUpBps,
		ChokeInterval: 250 * time.Millisecond,
		SampleEvery:   250 * time.Millisecond,
		Stagger:       100 * time.Millisecond,
		Deadline:      time.Duration(deadline * float64(time.Second)),
		Linger:        time.Second,
		SeedStopAfter: time.Duration(sp.InitialSeedLeavesAt * float64(time.Second)),
		MinResidency:  DefaultResidencyS,
	}
	p, err := sp.Perturbations()
	if err != nil {
		return Config{}, err
	}
	cfg.Perturbations = p
	if p.Faults.SeedSlowFactor > 0 {
		cfg.SeedUploadBps *= p.Faults.SeedSlowFactor
	}
	if p.Faults.SeedFailFrac > 0 && cfg.SeedStopAfter == 0 {
		cfg.SeedStopAfter = time.Duration(p.Faults.SeedFailFrac * float64(cfg.Deadline))
	}
	return cfg, nil
}

func clampInt(v, def, lo, hi int) int {
	if v == 0 {
		v = def
	}
	return min(max(v, lo), hi)
}

// applyResilience sets one client's resilience policy and, when a fault
// plan is active, hands the client a fresh injector. Fault-free runs keep
// the client's own defaults: no dial retries and no request timeouts.
// Chaos, Byzantine and crash runs live on seconds-scale deadlines, so the
// schedule tightens: four dial retries (backing off from the client's
// 100 ms base), a 2 s request timeout (three timeout faults snub a peer),
// 2 s bans and a 200 ms-2 s announce backoff must fit inside the run for
// the snub/ban machinery to act before the deadline. Bans are permanent in
// the sim twin, so with adversaries present live bans outlast the run and
// a banned poisoner cannot rejoin, by address or by peer ID. Injector seeds
// derive from the run seed through an offset stream (101+idx) disjoint
// from the client-identity stream (1..peers), so fault schedules and
// client RNGs stay decorrelated but both replay under a fixed run seed.
func (cfg *Config) applyResilience(opts *client.Options, idx int) {
	p := cfg.Perturbations
	if p.Any() {
		opts.DialTimeout = 2 * time.Second
		opts.DialRetries = 4
		opts.RequestTimeout = 2 * time.Second
		opts.BanFor = 2 * time.Second
		opts.AnnounceRetryBase = 200 * time.Millisecond
		opts.AnnounceRetryMax = 2 * time.Second
	}
	if !p.Adversary.IsZero() {
		opts.BanFor = 10 * time.Minute
	}
	if p.Faults.Enabled() {
		opts.Faults = netem.NewInjector(p.Faults, scenario.MixSeed(cfg.Seed, 101+idx), cfg.Deadline)
	}
}

// clientOptions returns the options every lab client starts from: the
// metainfo, an upload cap, the choke interval, the identity seed and the
// run's resilience policy with injector stream inj (applyResilience).
func (cfg *Config) clientOptions(meta *metainfo.MetaInfo, uploadBps float64, seed int64, inj int) client.Options {
	opts := client.Options{
		Meta:          meta,
		UploadBps:     uploadBps,
		ChokeInterval: cfg.ChokeInterval,
		Seed:          seed,
	}
	cfg.applyResilience(&opts, inj)
	return opts
}

// Result is everything one live swarm produced, mirroring the fields of a
// simulator swarm.Result that the report builder consumes.
type Result struct {
	Config Config
	// Collector is the local peer's finalized instrumentation.
	Collector *trace.Collector
	// LocalCompleted / LocalDownloadSeconds describe the instrumented
	// peer (download time -1 when it did not finish).
	LocalCompleted       bool
	LocalDownloadSeconds float64
	// Arrivals counts leechers; FinishedContrib / MeanDownloadContrib
	// cover the non-instrumented leechers that completed.
	Arrivals            int
	FinishedContrib     int
	MeanDownloadContrib float64
	// EndSeconds is the collector-clock time the swarm was torn down.
	EndSeconds float64
}

// swarmView is the orchestrator's membership table behind the
// global-availability callback: which clients are live and which is the
// initial seed.
type swarmView struct {
	mu       sync.Mutex
	members  []*client.Client
	seed     *client.Client
	seedGone bool
}

func (v *swarmView) add(c *client.Client) {
	v.mu.Lock()
	v.members = append(v.members, c)
	v.mu.Unlock()
}

// remove drops a crashed member so the global availability view stops
// counting its copies until its restarted twin is added back.
func (v *swarmView) remove(c *client.Client) {
	v.mu.Lock()
	for i, m := range v.members {
		if m == c {
			v.members = append(v.members[:i], v.members[i+1:]...)
			break
		}
	}
	v.mu.Unlock()
}

func (v *swarmView) dropSeed() {
	v.mu.Lock()
	v.seedGone = true
	v.mu.Unlock()
}

// global returns (min copies over live members, rare-piece count). Rare
// pieces are held only by the initial seed — the paper's transient-state
// criterion; a departed seed leaves no rare pieces, as in the simulator.
func (v *swarmView) global(numPieces int) (int, int) {
	v.mu.Lock()
	members := append([]*client.Client(nil), v.members...)
	seed, seedGone := v.seed, v.seedGone
	v.mu.Unlock()

	counts := make([]int, numPieces)
	for _, c := range members {
		if seedGone && c == seed {
			continue
		}
		bf := c.Bitfield()
		for i := 0; i < numPieces; i++ {
			if bf.Has(i) {
				counts[i]++
			}
		}
	}
	var seedBits = seed.Bitfield()
	minCopies, rare := counts[0], 0
	for i, n := range counts {
		if n < minCopies {
			minCopies = n
		}
		if n == 1 && !seedGone && seedBits.Has(i) {
			rare++
		}
	}
	return minCopies, rare
}

// Run provisions one live swarm, waits for it to finish (or hit its
// deadline) and returns the harvested result. It is safe to call from
// many goroutines at once: every swarm owns its tracker, listener ports
// and clients.
func Run(cfg Config) (*Result, error) {
	if cfg.NumPieces <= 0 || cfg.PieceSize <= 0 || cfg.Leechers < 1 {
		return nil, fmt.Errorf("live: bad config %+v", cfg)
	}

	// Live-lab obs series (all no-ops without an active registry): how
	// many swarms are in flight right now, how many ever started, and how
	// many leecher downloads have completed.
	reg := obs.Active()
	gActive := reg.Gauge("live_swarms_active")
	gActive.Add(1)
	defer gActive.Add(-1)
	reg.Counter("live_swarms_total").Inc()
	cCompletions := reg.Counter("live_leecher_completions_total")

	// Content derives from the run seed, like the simulator's RNG stream.
	rng := rand.New(rand.NewSource(cfg.Seed))
	content := make([]byte, cfg.NumPieces*cfg.PieceSize)
	rng.Read(content)

	// Loopback HTTP tracker with a fast re-announce interval.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("live: tracker listen: %w", err)
	}
	trk := tracker.NewServer(1)
	if reg != nil {
		trk.SetMetrics(reg)
	}
	p := cfg.Perturbations
	handler := trk.Handler()
	if p.Faults.Blackout() {
		// The blackout window anchors to tracker start: announces inside
		// [startFrac, endFrac)·Deadline fail with 503 and the clients'
		// announce backoff takes over.
		handler = netem.BlackoutHandler(handler, time.Now(),
			time.Duration(p.Faults.BlackoutStartFrac*float64(cfg.Deadline)),
			time.Duration(p.Faults.BlackoutEndFrac*float64(cfg.Deadline)))
	}
	srv := &http.Server{Handler: handler}
	go srv.Serve(ln)
	defer srv.Close()
	announce := fmt.Sprintf("http://%s/announce", ln.Addr())

	meta, err := metainfo.Build(fmt.Sprintf("live-t%d.bin", cfg.TorrentID), announce, content, cfg.PieceSize)
	if err != nil {
		return nil, fmt.Errorf("live: metainfo: %w", err)
	}

	view := &swarmView{}
	clientSeed := func(i int) int64 {
		s := scenario.MixSeed(cfg.Seed, i+1)
		if s == 0 {
			s = 1
		}
		return s
	}

	// Initial seed.
	seedOpts := cfg.clientOptions(meta, cfg.SeedUploadBps, clientSeed(0), 0)
	seedOpts.Content = content
	seed, err := client.New(seedOpts)
	if err != nil {
		return nil, fmt.Errorf("live: seed client: %w", err)
	}
	view.seed = seed
	if err := seed.Start("127.0.0.1:0", announce); err != nil {
		return nil, fmt.Errorf("live: seed start: %w", err)
	}
	view.add(seed)
	defer seed.Stop()

	if cfg.SeedStopAfter > 0 {
		timer := time.AfterFunc(cfg.SeedStopAfter, func() {
			view.dropSeed()
			seed.Stop()
		})
		defer timer.Stop()
	}

	// Adversarial clients join on top of the honest population:
	// round(Fraction·population) of them, at least one. Poisoners carry
	// the content (they must be asked for blocks to corrupt them) and pose
	// as seeds; liars and flooders join as leechers. None of them enter
	// the completion accounting or the global-availability view — a
	// poisoner's copies are not trustworthy availability. Identity seeds
	// (201+i), behavior seeds (301+i) and injector seeds (applyResilience
	// at 400+i) come from disjoint offset streams of the run seed.
	var advClients []*client.Client
	stopAdv := func() {
		for _, a := range advClients {
			a.Stop()
		}
	}
	defer stopAdv()
	if !p.Adversary.IsZero() {
		n := max(int(math.Round(p.Adversary.Fraction*float64(cfg.Leechers+1))), 1)
		poisoner := p.Adversary.Kind() == "poison"
		for i := 0; i < n; i++ {
			opts := cfg.clientOptions(meta, cfg.PeerUploadBps, scenario.MixSeed(cfg.Seed, 201+i), 400+i)
			opts.Adversary = adversary.New(p.Adversary, scenario.MixSeed(cfg.Seed, 301+i))
			if poisoner {
				opts.Content = content
				opts.UploadBps = cfg.SeedUploadBps
			}
			a, err := client.New(opts)
			if err != nil {
				stopAdv()
				return nil, fmt.Errorf("live: adversary %d: %w", i, err)
			}
			if err := a.Start("127.0.0.1:0", announce); err != nil {
				stopAdv()
				return nil, fmt.Errorf("live: adversary %d start: %w", i, err)
			}
			advClients = append(advClients, a)
		}
	}

	col := trace.NewCollector(0)
	col.MinResidency = cfg.MinResidency

	// Leechers arrive staggered; the LAST is the instrumented local peer,
	// mirroring the simulator's local peer joining a warmed-up swarm.
	type leecher struct {
		c       *client.Client
		startAt time.Time
	}
	var (
		leechers []leecher
		doneMu   sync.Mutex
		doneAt   = make(map[int]time.Time)
	)

	// Crash schedule: victims, kill thresholds and the shared downtime
	// are drawn up front from a dedicated offset stream (501) of the run
	// seed, so a fixed seed replays the same schedule even though
	// real-TCP timing varies. A kill fires when the victim's verified
	// piece count crosses its drawn fraction of the torrent — progress-
	// triggered rather than wall-clock, so every kill lands mid-transfer
	// regardless of link speed. Only non-instrumented leechers are
	// candidates — the local peer carries the collector and must live
	// the whole run.
	var (
		crashMu          sync.Mutex
		crashWG          sync.WaitGroup
		crashStop        = make(chan struct{})
		crashStopped     bool
		nKilled          int
		nRestarted       int
		totalResumeBytes int64
		totalHashFails   int
		corruptDone      bool
		resumeDirs       = make(map[int]string)
		killAtPieces     = make(map[int]int)
		crashDowntime    time.Duration
	)
	if p.Crashes.Enabled() && cfg.Leechers > 1 {
		crand := rand.New(rand.NewSource(scenario.MixSeed(cfg.Seed, 501)))
		candidates := cfg.Leechers - 1
		n := min(max(int(math.Round(p.Crashes.Frac*float64(candidates))), 1), candidates)
		for _, idx := range crand.Perm(candidates)[:n] {
			frac := p.Crashes.StartFrac + float64(crand.Float64()*(p.Crashes.EndFrac-p.Crashes.StartFrac)) // float64: no fused multiply-add
			killAtPieces[idx] = min(max(int(math.Ceil(frac*float64(cfg.NumPieces))), 1), cfg.NumPieces-1)
			dir, err := os.MkdirTemp("", "rf-resume-")
			if err != nil {
				return nil, fmt.Errorf("live: resume dir: %w", err)
			}
			defer os.RemoveAll(dir)
			resumeDirs[idx] = dir
		}
		crashDowntime = time.Duration(p.Crashes.DowntimeFrac * float64(cfg.Deadline))
	}

	stopAll := func() {
		// Halt the crash orchestration first so no victim is killed or
		// restarted under a tearing-down swarm; then non-local leechers,
		// so the local peer observes their departures, then the local
		// peer, then (deferred) the seed.
		crashMu.Lock()
		if !crashStopped {
			crashStopped = true
			close(crashStop)
		}
		cs := make([]*client.Client, 0, len(leechers))
		for _, l := range leechers {
			cs = append(cs, l.c)
		}
		crashMu.Unlock()
		for _, c := range cs {
			c.Stop()
		}
	}
	// leecherOptions are honest leecher i's options, shared by its first
	// start and a crash restart over the same ResumeDir.
	leecherOptions := func(i int) client.Options {
		opts := cfg.clientOptions(meta, cfg.PeerUploadBps, clientSeed(i+1), i+1)
		opts.NoPoisonBan = p.AdversaryNoBan
		opts.ResumeDir = resumeDirs[i]
		return opts
	}
	// completed is leecher i's completion callback.
	completed := func(i int) func() {
		return func() {
			cCompletions.Inc()
			doneMu.Lock()
			doneAt[i] = time.Now()
			doneMu.Unlock()
		}
	}
	localIdx := cfg.Leechers - 1
	for i := 0; i < cfg.Leechers; i++ {
		if i > 0 {
			time.Sleep(cfg.Stagger)
		}
		opts := leecherOptions(i)
		if i == localIdx {
			opts.Trace = col
			opts.SampleEvery = cfg.SampleEvery
			opts.GlobalAvail = func() (int, int) { return view.global(cfg.NumPieces) }
		}
		// startAt is captured before New so it lower-bounds the client's
		// internal clock origin: the Finalize timestamp derived from it
		// can never precede a recorded event.
		startAt := time.Now()
		l, err := client.New(opts)
		if err != nil {
			stopAll()
			return nil, fmt.Errorf("live: leecher %d: %w", i, err)
		}
		l.OnComplete(completed(i))
		if err := l.Start("127.0.0.1:0", announce); err != nil {
			stopAll()
			return nil, fmt.Errorf("live: leecher %d start: %w", i, err)
		}
		leechers = append(leechers, leecher{c: l, startAt: startAt})
		view.add(l)
	}
	localStart := leechers[localIdx].startAt

	// Kill/restart orchestration: each victim goroutine watches its
	// client's verified piece count, SIGKILLs it at the drawn threshold
	// (client.Kill closes the resume store before connections drain, as
	// a real process death would leave it), sleeps the plan downtime,
	// and restarts a twin over the same ResumeDir with identical
	// options. The first corrupt-resume victim has its data file
	// overwritten before the restart so the re-hash-on-load contract is
	// exercised end to end.
	for idx, want := range killAtPieces {
		idx, want := idx, want
		crashWG.Add(1)
		go func() {
			defer crashWG.Done()
			crashMu.Lock()
			watch := leechers[idx].c
			crashMu.Unlock()
			tick := time.NewTicker(10 * time.Millisecond)
			defer tick.Stop()
			for watch.Bitfield().Count() < want {
				select {
				case <-crashStop:
					return
				case <-tick.C:
				}
			}
			crashMu.Lock()
			if crashStopped {
				crashMu.Unlock()
				return
			}
			victim := leechers[idx].c
			crashMu.Unlock()
			victim.Kill()
			view.remove(victim)
			crashMu.Lock()
			nKilled++
			dir := resumeDirs[idx]
			if p.Crashes.CorruptResume && !corruptDone && client.ResumeClaims(dir) > 0 {
				client.CorruptResumeData(dir)
				corruptDone = true
			}
			crashMu.Unlock()
			select {
			case <-crashStop:
				return
			case <-time.After(crashDowntime):
			}
			nc, err := client.New(leecherOptions(idx))
			if err != nil {
				return
			}
			_, resBytes, resFails := nc.ResumeStats()
			// The restart voids any pre-kill completion: the run now waits
			// for the restarted client to (re)complete — a corrupted-resume
			// victim must finish again via re-download.
			doneMu.Lock()
			delete(doneAt, idx)
			doneMu.Unlock()
			nc.OnComplete(completed(idx))
			crashMu.Lock()
			if crashStopped {
				crashMu.Unlock()
				nc.Stop()
				return
			}
			if err := nc.Start("127.0.0.1:0", announce); err != nil {
				crashMu.Unlock()
				nc.Stop()
				return
			}
			leechers[idx].c = nc
			nRestarted++
			totalResumeBytes += resBytes
			totalHashFails += resFails
			crashMu.Unlock()
			view.add(nc)
			// A victim killed in the instant between its last piece
			// verifying and its completion callback resumes already
			// complete; the restarted client then never fires
			// OnComplete, so record the completion here.
			if nc.Bitfield().Count() == cfg.NumPieces {
				doneMu.Lock()
				if _, ok := doneAt[idx]; !ok {
					doneAt[idx] = time.Now()
				}
				doneMu.Unlock()
			}
		}()
	}

	// Wait until every leecher finished or the deadline passes, then
	// linger briefly so post-completion intervals (residency past the
	// filter, seed-state choke rounds) accumulate.
	deadline := time.Now().Add(cfg.Deadline)
	for time.Now().Before(deadline) {
		doneMu.Lock()
		n := len(doneAt)
		doneMu.Unlock()
		if n == len(leechers) {
			if lingerEnd := time.Now().Add(cfg.Linger); lingerEnd.Before(deadline) {
				time.Sleep(cfg.Linger)
			} else {
				time.Sleep(time.Until(deadline))
			}
			break
		}
		time.Sleep(20 * time.Millisecond)
	}

	stopAll()
	crashWG.Wait()
	end := time.Since(localStart).Seconds()
	// Lab-level crash counters use the live convention (bare names; the
	// sim twins carry the swarm_ prefix) and are added only after the
	// crash goroutines drained — the collector is single-writer.
	crashMu.Lock()
	if nKilled > 0 {
		col.AddFault("peer_crash", nKilled)
	}
	if nRestarted > 0 {
		col.AddFault("peer_resume", nRestarted)
	}
	if totalResumeBytes > 0 {
		col.AddFault("resume_bytes_saved", int(totalResumeBytes))
	}
	if totalHashFails > 0 {
		col.AddFault("resume_hash_fail", totalHashFails)
	}
	crashMu.Unlock()
	col.Finalize(end)

	res := &Result{
		Config:               cfg,
		Collector:            col,
		Arrivals:             len(leechers),
		EndSeconds:           end,
		LocalDownloadSeconds: -1,
	}
	if at := col.SeededAt(); at >= 0 {
		res.LocalCompleted = true
		res.LocalDownloadSeconds = at
	}
	doneMu.Lock()
	var sum float64
	for i, l := range leechers {
		if i == localIdx {
			continue
		}
		if at, ok := doneAt[i]; ok {
			res.FinishedContrib++
			sum += at.Sub(l.startAt).Seconds()
		}
	}
	doneMu.Unlock()
	if res.FinishedContrib > 0 {
		res.MeanDownloadContrib = sum / float64(res.FinishedContrib)
	}
	return res, nil
}
