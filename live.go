package rarestfirst

import (
	"fmt"

	"rarestfirst/internal/live"
	"rarestfirst/internal/swarm"
	"rarestfirst/internal/torrents"
)

// runLive executes sc as a real-TCP loopback swarm and adapts the
// harvested instrumentation onto the exact swarm.Result/Config shape the
// simulator produces, so buildReport — and therefore every figure
// statistic, AggregateReports and the JSONL sink — is shared verbatim
// between the two backends.
func runLive(sc Scenario) (*Report, error) {
	spec, ok := torrents.ByID(sc.TorrentID)
	if !ok {
		return nil, fmt.Errorf("rarestfirst: no torrent %d in Table I", sc.TorrentID)
	}
	lcfg, err := live.FromSpec(sc)
	if err != nil {
		return nil, err
	}
	lres, err := live.Run(lcfg)
	if err != nil {
		return nil, err
	}
	// The report builder only reads the config's content geometry (CDF
	// windows scale with piece/block counts); populate exactly that.
	cfg := swarm.Config{
		NumPieces: lcfg.NumPieces,
		PieceSize: lcfg.PieceSize,
	}
	res := &swarm.Result{
		Collector:           lres.Collector,
		LocalCompleted:      lres.LocalCompleted,
		LocalDownloadTime:   lres.LocalDownloadSeconds,
		Arrivals:            lres.Arrivals,
		FinishedContrib:     lres.FinishedContrib,
		MeanDownloadContrib: lres.MeanDownloadContrib,
		EndTime:             lres.EndSeconds,
	}
	return buildReport(sc, spec, cfg, res), nil
}
