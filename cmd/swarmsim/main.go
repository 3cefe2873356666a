// Command swarmsim runs instrumented swarm experiments and prints their
// reports — the interactive front door to the reproduction.
//
// Single run:
//
//	swarmsim -torrent 7 [-scale bench] [-picker random] [-seedchoke old]
//	         [-leecherchoke tit-for-tat] [-freeriders 0.2] [-smartseed]
//	         [-localfreerider] [-seed 1234] [-churn 2] [-seedup 0.5]
//
// Named scenario suites (see -list), fanned across a worker pool with
// multi-seed repeats and mean/stddev aggregation:
//
//	swarmsim -suite churn -seeds 1,2,3 [-workers 8] [-v]
package main

import (
	"flag"
	"fmt"
	"os"

	"rarestfirst"
	"rarestfirst/internal/cliutil"
)

func main() {
	torrentID := flag.Int("torrent", 7, "Table I torrent id (1..26)")
	scaleName := flag.String("scale", "", "default or bench (empty = the suite's own scale; a single run uses default)")
	picker := flag.String("picker", "", "rarest-first | random | sequential | global-rarest")
	seedChoke := flag.String("seedchoke", "", "new | old")
	leecherChoke := flag.String("leecherchoke", "", "standard | tit-for-tat")
	freeRiders := flag.Float64("freeriders", 0, "fraction of leechers that never upload")
	smartSeed := flag.Bool("smartseed", false, "idealized coding/super-seed serve policy")
	localFreeRider := flag.Bool("localfreerider", false, "instrumented peer never uploads")
	seed := flag.Int64("seed", 0, "repeat seed, mixed with the torrent id (0 = catalog default)")
	churn := flag.Float64("churn", 0, "leecher arrival rate multiplier (0 = unchanged)")
	seedUp := flag.Float64("seedup", 0, "initial seed capacity multiplier (0 = unchanged)")
	list := flag.Bool("list", false, "list the registered scenario suites and exit")
	suiteName := flag.String("suite", "", "run a named scenario suite instead of a single torrent")
	seedList := flag.String("seeds", "", "comma-separated RNG seeds for suite repeats")
	workers := flag.Int("workers", 0, "parallel simulation workers (0 = NumCPU)")
	verbose := flag.Bool("v", false, "with -suite: print every per-run report, not just aggregates")
	flag.Parse()

	if *list {
		cliutil.PrintSuites(os.Stdout)
		return
	}

	scale, err := cliutil.ParseScale(*scaleName)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	if *suiteName != "" {
		seeds, err := cliutil.ParseSeeds(*seedList)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		suite, err := rarestfirst.NewSuite(*suiteName, rarestfirst.SuiteOptions{Scale: scale, Seeds: seeds})
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		sr, err := rarestfirst.Runner{Workers: *workers}.RunSuite(suite)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		sr.WriteText(os.Stdout)
		if *verbose {
			for _, rep := range sr.Reports {
				fmt.Println()
				rep.WriteText(os.Stdout)
			}
		}
		return
	}

	rep, err := rarestfirst.Run(rarestfirst.Scenario{
		TorrentID:         *torrentID,
		Scale:             scale,
		Picker:            *picker,
		SeedChoke:         *seedChoke,
		LeecherChoke:      *leecherChoke,
		FreeRiderFraction: *freeRiders,
		SmartSeedServe:    *smartSeed,
		LocalFreeRider:    *localFreeRider,
		SeedOverride:      *seed,
		ChurnScale:        *churn,
		SeedUpScale:       *seedUp,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	rep.WriteText(os.Stdout)
}
