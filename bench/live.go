package main

// live-swarm: a closed loop of real TCP clients over the host's loopback
// interface (not a real link), discovered through a real HTTP tracker.
// internal/live is rate-capped by design, so its wall time is
// configuration; this drives client + tracker directly with the upload
// cap out of the way, which makes the socket path CPU-bound.

import (
	"bytes"
	"fmt"
	"math/rand"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"time"

	"rarestfirst/internal/client"
	"rarestfirst/internal/metainfo"
	"rarestfirst/internal/obs"
	"rarestfirst/internal/scenario"
	"rarestfirst/internal/trace"
	"rarestfirst/internal/tracker"
)

const liveDeadline = 30 * time.Second

// liveMode selects what an iteration adds to the plain swarm.
type liveMode struct {
	leechers int
	resume   bool      // leechers persist pieces under a fresh ResumeDir
	collect  bool      // leechers fill a trace.Collector (Options.Trace)
	rec      *recorder // harness spans + first-piece polling
}

type liveInstance struct {
	b       *bench
	seed    int64
	content []byte
	meta    *metainfo.MetaInfo
	mode    liveMode
	iter    int

	// one iteration's swarm
	web      *httptest.Server
	seedC    *client.Client
	leechers []*client.Client
	dirs     []string
	started  time.Time
	doneAt   []time.Time
	firstAt  []time.Time
	newSeed  time.Duration
	timedOut bool
	iterSpan int

	stats liveStats // of the last finished iteration
}

// liveStats are the per-iteration observations behind the client.*
// ledger rows.
type liveStats struct {
	newSeed         time.Duration
	startup         time.Duration // leecher Start -> first verified piece, median over leechers
	ttcSpread       time.Duration // last minus first leecher completion
	seedUploadShare float64
	downloadedRatio float64
}

// newLive generates the content from the seed, hashes it once and runs
// the warm-up iterations.
func (b *bench) newLive(seed int64) (instance, error) {
	content := make([]byte, b.sz.liveContent)
	rand.New(rand.NewSource(seed)).Read(content)
	meta, err := metainfo.Build("bench.bin", "", content, b.sz.livePieceLen)
	if err != nil {
		return nil, err
	}
	l := &liveInstance{b: b, seed: seed, content: content, meta: meta,
		mode: liveMode{leechers: b.sz.liveLeechers}}
	for i := 0; i < b.sz.liveWarmups; i++ {
		if _, err := l.once(); err != nil {
			return nil, err
		}
	}
	return l, nil
}

// once runs one full iteration outside measure() and returns the timed
// region's wall time.
func (l *liveInstance) once() (time.Duration, error) {
	if err := l.prepare(); err != nil {
		return 0, err
	}
	t0 := time.Now()
	err := l.run()
	d := time.Since(t0)
	if _, ferr := l.finish(); err == nil {
		err = ferr
	}
	return d, err
}

func (l *liveInstance) clientOpts(idx int) client.Options {
	return client.Options{
		Meta:          l.meta,
		UploadBps:     1e10,
		ChokeInterval: 100 * time.Millisecond,
		Seed:          scenario.MixSeed(l.seed, 1+idx),
	}
}

// prepare starts a fresh tracker and seed and builds the leechers.
func (l *liveInstance) prepare() error {
	l.iter++
	l.timedOut = false
	trk := tracker.NewServer(0)
	l.web = httptest.NewServer(trk.Handler())
	url := l.web.URL + "/announce"

	opts := l.clientOpts(0)
	opts.Content = l.content
	t0 := time.Now()
	seedC, err := client.New(opts)
	l.newSeed = time.Since(t0)
	if err != nil {
		return err
	}
	l.seedC = seedC
	if err := seedC.Start("127.0.0.1:0", url); err != nil {
		return err
	}
	// Leechers must find the seed in their first announce.
	deadline := time.Now().Add(5 * time.Second)
	for seeds, _ := trk.Count(l.meta.InfoHash()); seeds == 0; seeds, _ = trk.Count(l.meta.InfoHash()) {
		if time.Now().After(deadline) {
			return fmt.Errorf("seed did not reach the tracker")
		}
		time.Sleep(time.Millisecond)
	}

	n := l.mode.leechers
	l.leechers, l.dirs = nil, nil
	l.doneAt, l.firstAt = make([]time.Time, n), make([]time.Time, n)
	for i := 0; i < n; i++ {
		opts := l.clientOpts(1 + i)
		if l.mode.resume {
			dir := filepath.Join(l.b.outDir, fmt.Sprintf("resume-%d-%d", l.iter, i))
			if err := os.MkdirAll(dir, 0o755); err != nil {
				return err
			}
			l.dirs = append(l.dirs, dir)
			opts.ResumeDir = dir
		}
		if l.mode.collect {
			opts.Trace = trace.NewCollector(0)
		}
		c, err := client.New(opts)
		if err != nil {
			return err
		}
		l.leechers = append(l.leechers, c)
	}
	return nil
}

// run is the timed region: first leecher Start to last Complete.
func (l *liveInstance) run() error {
	rec := l.mode.rec
	if rec != nil {
		l.iterSpan = rec.root("iteration", l.iter)
	}
	var wg sync.WaitGroup
	var poll sync.WaitGroup
	stopPoll := make(chan struct{})
	l.started = time.Now()
	for i, c := range l.leechers {
		i, c := i, c
		wg.Add(1)
		span := 0
		if rec != nil {
			span = rec.start("client.download", l.iterSpan)
		}
		c.OnComplete(func() {
			l.doneAt[i] = time.Now()
			if rec != nil {
				rec.end(span)
			}
			wg.Done()
		})
		if rec != nil {
			// First verified piece, polled at 1 ms: the startup delay the
			// paper calls the first-blocks problem.
			poll.Add(1)
			go func() {
				defer poll.Done()
				first := rec.start("client.startup", span)
				tick := time.NewTicker(time.Millisecond)
				defer tick.Stop()
				for {
					select {
					case <-stopPoll:
						return
					case <-tick.C:
						if done, _ := c.Progress(); done > 0 {
							l.firstAt[i] = time.Now()
							rec.end(first)
							return
						}
					}
				}
			}()
		}
		if err := c.Start("127.0.0.1:0", l.web.URL+"/announce"); err != nil {
			return err
		}
	}
	all := make(chan struct{})
	go func() { wg.Wait(); close(all) }()
	select {
	case <-all:
	case <-time.After(liveDeadline):
		l.timedOut = true
	}
	close(stopPoll)
	poll.Wait()
	if rec != nil {
		rec.end(l.iterSpan)
	}
	return nil
}

// finish checks every leecher's bytes against the content, gathers the
// iteration's observations and tears the swarm down.
func (l *liveInstance) finish() (tally, error) {
	tl := tally{attempted: len(l.leechers)}
	var downloaded int64
	for _, c := range l.leechers {
		_, down := c.Stats()
		downloaded += down
		if l.timedOut && !c.Complete() || !bytes.Equal(c.Bytes(), l.content) {
			tl.failed++
			continue
		}
		tl.ops += float64(l.meta.Geometry().TotalBlocks())
	}
	seedUp, _ := l.seedC.Stats()
	st := liveStats{newSeed: l.newSeed}
	if downloaded > 0 {
		st.seedUploadShare = float64(seedUp) / float64(downloaded)
		st.downloadedRatio = float64(downloaded) / float64(len(l.leechers)*len(l.content))
	}
	if tl.failed == 0 {
		first, last := l.doneAt[0], l.doneAt[0]
		var startups []float64
		for i, t := range l.doneAt {
			if t.Before(first) {
				first = t
			}
			if t.After(last) {
				last = t
			}
			if !l.firstAt[i].IsZero() {
				startups = append(startups, l.firstAt[i].Sub(l.started).Seconds())
			}
		}
		st.ttcSpread = last.Sub(first)
		st.startup = time.Duration(median(startups) * float64(time.Second))
	}
	l.stats = st
	l.close()
	if tl.failed > 0 {
		return tl, fmt.Errorf("%d of %d leechers did not deliver the content", tl.failed, tl.attempted)
	}
	return tl, nil
}

// close stops whatever the current iteration started. Idempotent.
func (l *liveInstance) close() {
	for _, c := range l.leechers {
		c.Stop()
	}
	l.leechers = nil
	if l.seedC != nil {
		l.seedC.Stop()
		l.seedC = nil
	}
	if l.web != nil {
		l.web.Close()
		l.web = nil
	}
	for _, d := range l.dirs {
		os.RemoveAll(d)
	}
	l.dirs = nil
}

// walls runs n iterations in the instance's current mode.
func (l *liveInstance) walls(n int) (walls []float64, stats []liveStats, err error) {
	for i := 0; i < n; i++ {
		d, err := l.once()
		if err != nil {
			return nil, nil, err
		}
		walls = append(walls, d.Seconds())
		stats = append(stats, l.stats)
	}
	return walls, stats, nil
}

// ratio alternates n iterations of mode off and mode on and returns the
// two median wall times.
func (l *liveInstance) ratio(n int, off, on liveMode) (offS, onS float64, err error) {
	var walls [2][]float64
	for i := 0; i < n; i++ {
		for side, mode := range [2]liveMode{off, on} {
			l.mode = mode
			d, err := l.once()
			if err != nil {
				return 0, 0, err
			}
			walls[side] = append(walls[side], d.Seconds())
		}
	}
	return median(walls[0]), median(walls[1]), nil
}

// traceLive is the traced run of live-swarm plus the client probes.
func (b *bench) traceLive(seed int64, rec *recorder, out *layerValues) error {
	instI, err := b.newLive(seed)
	if err != nil {
		return err
	}
	l := instI.(*liveInstance)
	defer l.close()
	n := b.sz.probeIters
	plain := liveMode{leechers: b.sz.liveLeechers}
	mib := func(leechers int) float64 { return float64(leechers*len(l.content)) / (1 << 20) }

	off, _, err := l.walls(n)
	if err != nil {
		return err
	}
	out.set("client.goodput_mb_s", mib(plain.leechers)/median(off))

	obs.SetDefault(obs.NewRegistry())
	l.mode = plain
	l.mode.rec = rec
	on, stats, err := l.walls(n)
	obs.SetDefault(nil)
	if err != nil {
		return err
	}
	out.set("trace_overhead_ratio", median(on)/median(off))
	stat := func(f func(liveStats) float64) float64 { return medianOf(stats, f) }
	out.set("client.new_seed_ms", stat(func(s liveStats) float64 { return ms(s.newSeed) }))
	out.set("client.startup_ms", stat(func(s liveStats) float64 { return ms(s.startup) }))
	out.set("client.ttc_spread_ms", stat(func(s liveStats) float64 { return ms(s.ttcSpread) }))
	out.set("client.seed_upload_share", stat(func(s liveStats) float64 { return s.seedUploadShare }))
	out.set("client.downloaded_over_content", stat(func(s liveStats) float64 { return s.downloadedRatio }))

	// Upload path alone: one seed, one leecher, no peer exchange.
	l.mode = liveMode{leechers: 1}
	pair, _, err := l.walls(n)
	if err != nil {
		return err
	}
	out.set("client.single_pair_mb_s", mib(1)/median(pair))

	// Durable resume on / off. The directory sits in the checkout, so the
	// filesystem's real fsync is in the ratio.
	resume := plain
	resume.resume = true
	offS, onS, err := l.ratio(n, plain, resume)
	if err != nil {
		return err
	}
	out.set("client.resume_ratio", onS/offS)
	out.set("client.persist_us_per_piece", max(0, onS-offS)*1e6/float64(l.meta.NumPieces()))

	collect := plain
	collect.collect = true
	if offS, onS, err = l.ratio(n, plain, collect); err != nil {
		return err
	}
	out.set("client.trace_ratio", onS/offS)
	return nil
}
