package swarm

// GlobalMinCopies returns the torrent-wide minimum piece copy count — the
// transient/steady state criterion (steady state: "there is no rare piece",
// i.e. every piece has at least one copy among live peers).
func (s *Swarm) GlobalMinCopies() int { return s.globalAvail.MinCount() }
