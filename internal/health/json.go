package health

import "encoding/json"

// The JSON planes below are read-side telemetry: they allocate and
// marshal on demand, never on the epoch path, and the obsgate analyzer
// bans them from hot-layer packages.

// healthDoc is the /health document.
type healthDoc struct {
	Epoch   int     `json:"epoch"`
	Sealed  bool    `json:"sealed"`
	Rules   int     `json:"rules"`
	Series  int     `json:"series"`
	Firing  int     `json:"firing"`
	Active  []Alert `json:"active"`
	Journal []Alert `json:"journal"`
}

// HealthJSON renders the health summary served at /health: last sealed
// epoch, active alerts, and the journal (oldest entry first).
func (s *Store) HealthJSON() []byte {
	if s == nil {
		return []byte("{}")
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	active := s.activeLocked()
	doc := healthDoc{
		Epoch:   s.epoch,
		Sealed:  s.sealed,
		Rules:   len(s.rules),
		Series:  len(s.series),
		Firing:  len(active),
		Active:  active,
		Journal: s.journalLocked(0),
	}
	if doc.Active == nil {
		doc.Active = []Alert{}
	}
	if doc.Journal == nil {
		doc.Journal = []Alert{}
	}
	return marshal(doc)
}

type seriesInfo struct {
	Name   string  `json:"name"`
	Tiers  int     `json:"tiers"`
	FanIn  int     `json:"fan_in"`
	Points uint64  `json:"points"`
	Last   float64 `json:"last"`
}

type seriesListDoc struct {
	Epoch  int          `json:"epoch"`
	Series []seriesInfo `json:"series"`
}

type binJSON struct {
	Epoch uint32  `json:"epoch"`
	Min   float64 `json:"min"`
	Max   float64 `json:"max"`
	Mean  float64 `json:"mean"`
	Count uint32  `json:"count"`
}

type seriesDoc struct {
	Series string    `json:"series"`
	Tier   int       `json:"tier"`
	FanIn  int       `json:"fan_in"`
	Bins   []binJSON `json:"bins"`
}

// TimeseriesJSON renders the /timeseries plane. With an empty series
// name it lists every registered series (registration order); with a
// name it renders that series' bins at the requested tier, oldest bin
// first. Unknown series or out-of-range tiers return nil, which the
// HTTP layer maps to 404.
func (s *Store) TimeseriesJSON(series string, tier int) []byte {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if series == "" {
		doc := seriesListDoc{Epoch: s.epoch, Series: []seriesInfo{}}
		for _, se := range s.series {
			doc.Series = append(doc.Series, seriesInfo{
				Name:   se.name,
				Tiers:  len(se.tiers),
				FanIn:  fanIn,
				Points: se.total,
				Last:   se.last.Sum,
			})
		}
		return marshal(doc)
	}
	se := s.byName[series]
	if se == nil || tier < 0 || tier >= len(se.tiers) {
		return nil
	}
	r := &se.tiers[tier]
	doc := seriesDoc{Series: se.name, Tier: tier, FanIn: fanIn, Bins: []binJSON{}}
	for i := 0; i < r.Len(); i++ {
		b := r.At(i)
		doc.Bins = append(doc.Bins, binJSON{
			Epoch: b.Epoch, Min: b.Min, Max: b.Max, Mean: b.Mean(), Count: b.Count,
		})
	}
	return marshal(doc)
}

// DeltaJSON marshals the most recent sealed epoch's Delta — the exact
// bytes the wire server streams as message 0x19, so gateway-side
// determinism tests and wire subscribers compare the same payload.
func (s *Store) DeltaJSON() []byte {
	if s == nil {
		return []byte("{}")
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	d := s.delta
	if d.Points == nil {
		d.Points = []Point{}
	}
	if d.Alerts == nil {
		d.Alerts = []Alert{}
	}
	return marshal(d)
}

// marshal is json.Marshal for documents built from already-sanitized
// floats; encode errors are impossible by construction, and a panic
// here would mean the sanitize invariant broke.
func marshal(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic("health: marshal: " + err.Error())
	}
	return b
}
