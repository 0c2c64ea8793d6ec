package server

import (
	"recache"
	"recache/internal/shard"
)

// Member is one shard of a rendezvous-hashed fleet: an engine, the server
// in front of it, and the flight that ties the engine's cache to its peers
// — built together because they only work wired one way. The engine is
// opened with the flight as its cache.Fleet (misses take a fleet-wide
// materialization lease; with a spill dir, eager admissions are pushed to
// the key's replica shard), the flight and the server share one lease
// table, and the server hands the flight every topology change. Serve,
// Kill and Stats are the embedded server's.
type Member struct {
	*Server
}

// NewMember opens the shard with id self of fleet m on a fresh engine
// configured by cfg. Register tables on Engine(), then Serve.
func NewMember(self int, m *shard.Map, cfg recache.Config) (*Member, error) {
	srv := New(nil)
	srv.fleetSelf, srv.fleetMap = self, m
	srv.flight = newFlight(self, m, srv.leases)
	cfg.Fleet = srv.flight
	eng, err := recache.Open(cfg)
	if err != nil {
		srv.flight.Close()
		return nil, err
	}
	srv.eng = eng
	return &Member{srv}, nil
}

// Engine is the member's engine, for table registration and inspection.
// The member owns it: Close closes it.
func (mb *Member) Engine() *recache.Engine { return mb.eng }

// Close shuts the member down in the one safe order: drain the server (no
// request is left to start a build), stop the flight (no push or lease call
// is left in the air), then close the engine (pending spills flush). Safe
// after Kill and safe to call more than once.
func (mb *Member) Close() error {
	mb.Shutdown()
	mb.flight.Close()
	return mb.eng.Close()
}
