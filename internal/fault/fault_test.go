package fault

import (
	"math/rand"
	"testing"
	"time"

	"nvmcp/internal/sim"
	"nvmcp/internal/topo"
)

func TestParseKind(t *testing.T) {
	for _, k := range Kinds() {
		got, err := ParseKind(string(k))
		if err != nil || got != k {
			t.Errorf("ParseKind(%q) = %v, %v", k, got, err)
		}
	}
	if got, err := ParseKind(""); err != nil || got != Soft {
		t.Errorf("ParseKind(\"\") = %v, %v, want Soft (the historical default)", got, err)
	}
	if _, err := ParseKind("meteor-strike"); err == nil {
		t.Error("unknown kind accepted")
	}
}

// testTopo is 8 nodes over 1 provider × 2 zones × 2 racks/zone (2 per rack).
func testTopo(t *testing.T) *topo.Topology {
	t.Helper()
	tp, err := topo.Uniform(8, 1, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	return tp
}

// TestEventValidateAllKinds is the table-driven contract for every kind:
// point kinds validate against the machine size, correlated kinds against
// the fleet topology's domain coordinates.
func TestEventValidateAllKinds(t *testing.T) {
	tp := testTopo(t)
	cases := []struct {
		name string
		ev   Event
		topo *topo.Topology
		ok   bool
	}{
		{"soft ok", Event{At: time.Second, Node: 1, Kind: Soft}, nil, true},
		{"soft zero time", Event{Node: 1, Kind: Soft}, nil, false},
		{"soft node out of range", Event{At: time.Second, Node: 4, Kind: Soft}, nil, false},
		{"soft negative node", Event{At: time.Second, Node: -1, Kind: Soft}, nil, false},
		{"hard ok", Event{At: time.Second, Node: 3, Kind: Hard}, nil, true},
		{"unknown kind", Event{At: time.Second, Kind: "quantum"}, nil, false},
		{"empty kind", Event{At: time.Second, Node: 1}, nil, false},
		{"nvm-corrupt ok", Event{At: time.Second, Kind: NVMCorrupt, Chunks: 2, Torn: true}, nil, true},
		{"nvm-corrupt negative chunks", Event{At: time.Second, Kind: NVMCorrupt, Chunks: -1}, nil, false},
		{"link-flap ok", Event{At: time.Second, Kind: LinkFlap, Duration: time.Second, Factor: 0.1}, nil, true},
		{"link-flap no duration", Event{At: time.Second, Kind: LinkFlap}, nil, false},
		{"link-flap negative duration", Event{At: time.Second, Kind: LinkFlap, Duration: -time.Second}, nil, false},
		{"link-flap factor not <1", Event{At: time.Second, Kind: LinkFlap, Duration: time.Second, Factor: 1.0}, nil, false},
		{"buddy-loss ok", Event{At: time.Second, Node: 2, Kind: BuddyLoss}, nil, true},

		{"rack-outage ok", Event{At: time.Second, Kind: RackOutage, Zone: 1, Rack: 1}, tp, true},
		{"rack-outage no topology", Event{At: time.Second, Kind: RackOutage}, nil, false},
		{"rack-outage empty domain", Event{At: time.Second, Kind: RackOutage, Rack: 9}, tp, false},
		{"rack-outage with node target", Event{At: time.Second, Node: 3, Kind: RackOutage}, tp, false},
		{"rack-outage negative coord", Event{At: time.Second, Kind: RackOutage, Rack: -1}, tp, false},
		{"zone-outage ok", Event{At: time.Second, Kind: ZoneOutage, Zone: 1}, tp, true},
		{"zone-outage soft ok", Event{At: time.Second, Kind: ZoneOutage, Zone: 0, Soft: true}, tp, true},
		{"zone-outage empty domain", Event{At: time.Second, Kind: ZoneOutage, Zone: 5}, tp, false},
		{"provider-outage ok", Event{At: time.Second, Kind: ProviderOutage}, tp, true},
		{"provider-outage empty domain", Event{At: time.Second, Kind: ProviderOutage, Provider: 2}, tp, false},

		{"link-storm ok", Event{At: time.Second, Node: 2, Kind: LinkStorm, Duration: time.Second, Waves: 2}, tp, true},
		{"link-storm no topology", Event{At: time.Second, Kind: LinkStorm, Duration: time.Second}, nil, false},
		{"link-storm no duration", Event{At: time.Second, Kind: LinkStorm}, tp, false},
		{"link-storm negative waves", Event{At: time.Second, Kind: LinkStorm, Duration: time.Second, Waves: -1}, tp, false},
		{"link-storm negative wave delay", Event{At: time.Second, Kind: LinkStorm, Duration: time.Second, WaveDelay: -time.Second}, tp, false},
	}
	for _, tc := range cases {
		err := tc.ev.Validate(4, tc.topo)
		if tc.ok && err != nil {
			t.Errorf("%s: valid event rejected: %v", tc.name, err)
		}
		if !tc.ok && err == nil {
			t.Errorf("%s: bad event accepted: %+v", tc.name, tc.ev)
		}
	}
}

func TestVictimsResolveDomains(t *testing.T) {
	tp := testTopo(t)
	zone1 := Event{At: time.Second, Kind: ZoneOutage, Zone: 1}
	v := zone1.Victims(tp)
	if len(v) != 4 {
		t.Fatalf("zone outage hits %d nodes, want 4", len(v))
	}
	for _, n := range v {
		if got := tp.Coord(n).Zone; got != 1 {
			t.Errorf("victim %d in zone %d", n, got)
		}
	}
	rack := Event{At: time.Second, Kind: RackOutage, Zone: 0, Rack: 1}
	if got := rack.Victims(tp); len(got) != 2 {
		t.Fatalf("rack outage hits %d nodes, want 2", len(got))
	}
	provider := Event{At: time.Second, Kind: ProviderOutage}
	if got := provider.Victims(tp); len(got) != 8 {
		t.Fatalf("provider outage hits %d nodes, want 8", len(got))
	}
	point := Event{At: time.Second, Node: 3, Kind: Hard}
	if got := point.Victims(tp); len(got) != 1 || got[0] != 3 {
		t.Fatalf("point victims = %v", got)
	}
}

func TestEventLabels(t *testing.T) {
	if got := (Event{At: time.Second, Node: 1, Kind: NVMCorrupt}).Label(); got != "nvm-corrupt@1s/node1" {
		t.Errorf("point label = %q", got)
	}
	if got := (Event{At: 2 * time.Second, Kind: ZoneOutage, Zone: 1}).Label(); got != "zone-outage@2s/p0/z1" {
		t.Errorf("domain label = %q", got)
	}
}

func TestModelScheduleDeterministicSortedBounded(t *testing.T) {
	m := Model{
		MTBFSoft: 20 * time.Second,
		MTBFHard: 60 * time.Second,
		Horizon:  5 * time.Minute,
		Seed:     42,
	}
	const nodes = 4
	a, b := m.Schedule(nodes, nil), m.Schedule(nodes, nil)
	if len(a) == 0 {
		t.Fatal("model drew no events over 15 soft MTBFs")
	}
	if len(a) != len(b) {
		t.Fatalf("same seed drew %d then %d events", len(a), len(b))
	}
	var soft, hard int
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("event %d differs across same-seed draws: %+v vs %+v", i, a[i], b[i])
		}
		if i > 0 && a[i].At < a[i-1].At {
			t.Fatalf("schedule unsorted at %d", i)
		}
		if a[i].At >= m.Horizon {
			t.Fatalf("event %d at %v past horizon %v", i, a[i].At, m.Horizon)
		}
		if a[i].Node < 0 || a[i].Node >= nodes {
			t.Fatalf("event %d on node %d outside machine", i, a[i].Node)
		}
		switch a[i].Kind {
		case Soft:
			soft++
		case Hard:
			hard++
		default:
			t.Fatalf("model drew kind %q", a[i].Kind)
		}
	}
	if soft == 0 || hard == 0 {
		t.Fatalf("soft=%d hard=%d, want both classes present", soft, hard)
	}
	m2 := m
	m2.Seed = 43
	if c := m2.Schedule(nodes, nil); len(c) == len(a) && func() bool {
		for i := range c {
			if c[i] != a[i] {
				return false
			}
		}
		return true
	}() {
		t.Error("different seeds drew identical schedules")
	}
}

// TestModelCorrelatedKindsValidate is the satellite contract: every event a
// correlated model draws must pass Event.Validate, exactly like the point
// kinds — domain coordinates round-robin over real domains only.
func TestModelCorrelatedKindsValidate(t *testing.T) {
	tp := testTopo(t)
	m := Model{
		MTBFSoft: 30 * time.Second,
		MTBFHard: 90 * time.Second,
		MTBFRack: 60 * time.Second,
		MTBFZone: 2 * time.Minute,
		Horizon:  10 * time.Minute,
		Seed:     7,
	}
	events := m.Schedule(tp.Nodes(), tp)
	var rack, zone int
	for i, ev := range events {
		if err := ev.Validate(tp.Nodes(), tp); err != nil {
			t.Fatalf("scheduled event %d fails validation: %+v: %v", i, ev, err)
		}
		switch ev.Kind {
		case RackOutage:
			rack++
		case ZoneOutage:
			zone++
		}
	}
	if rack == 0 || zone == 0 {
		t.Fatalf("rack=%d zone=%d, want both correlated classes present", rack, zone)
	}
	// Without a topology the correlated classes draw nothing rather than
	// emitting invalid events.
	for i, ev := range m.Schedule(tp.Nodes(), nil) {
		if ev.Kind.Correlated() {
			t.Fatalf("event %d is %s despite nil topology", i, ev.Kind)
		}
	}
}

func TestModelDisabledClassDrawsNothing(t *testing.T) {
	m := Model{MTBFHard: 30 * time.Second, Horizon: 5 * time.Minute}
	for _, ev := range m.Schedule(2, nil) {
		if ev.Kind != Hard {
			t.Fatalf("disabled soft class drew %+v", ev)
		}
	}
	if got := (Model{Horizon: time.Minute}).Schedule(2, nil); len(got) != 0 {
		t.Fatalf("fully disabled model drew %d events", len(got))
	}
}

func TestExpandStormDeterministicCascade(t *testing.T) {
	tp := testTopo(t) // 4 racks of 2 nodes
	storm := Event{At: 10 * time.Second, Node: 2, Kind: LinkStorm,
		Duration: time.Second, Factor: 0.1, Waves: 2, WaveDelay: time.Second}
	a := ExpandStorm(storm, tp, 99)
	b := ExpandStorm(storm, tp, 99)
	if len(a) == 0 {
		t.Fatal("storm expanded to nothing")
	}
	if len(a) != len(b) {
		t.Fatalf("same seed expanded %d then %d flaps", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("flap %d differs across same-seed expansions", i)
		}
		if a[i].Kind != LinkFlap {
			t.Fatalf("expansion produced %s", a[i].Kind)
		}
		if err := a[i].Validate(tp.Nodes(), tp); err != nil {
			t.Fatalf("expanded flap %d invalid: %v", i, err)
		}
		if a[i].At < storm.At {
			t.Fatalf("flap %d fires before the storm", i)
		}
	}
	// Origin node 2 is in rack p0/z0/r1 (rack index 1 of 4); waves 0..2
	// reach racks {1}, {0,2}, {3} — the whole fleet.
	hit := map[int]bool{}
	for _, f := range a {
		hit[f.Node] = true
	}
	if len(hit) != 8 {
		t.Fatalf("2-wave storm from mid-fleet hit %d nodes, want all 8", len(hit))
	}
	if c := ExpandStorm(storm, tp, 100); len(c) == len(a) && c[0] == a[0] && c[len(c)-1] == a[len(a)-1] {
		t.Error("different seeds expanded identical storms")
	}
}

func TestInjectorDispatchesByKindAtScheduledTime(t *testing.T) {
	e := sim.NewEnv()
	type hit struct {
		kind Kind
		at   time.Duration
	}
	var hits []hit
	in := NewInjector(e, 7, nil, Surfaces{
		Kill: func(ev Event) { hits = append(hits, hit{ev.Kind, e.Now()}) },
		CorruptNVM: func(rng *rand.Rand, ev Event) int {
			if rng == nil {
				t.Error("corrupt surface got nil rng")
			}
			hits = append(hits, hit{ev.Kind, e.Now()})
			return ev.Chunks
		},
		FlapLink: func(ev Event) { hits = append(hits, hit{ev.Kind, e.Now()}) },
	})
	in.ScheduleAll([]Event{
		{At: 3 * time.Second, Node: 0, Kind: BuddyLoss},
		{At: time.Second, Node: 0, Kind: LinkFlap, Duration: time.Second},
		{At: 2 * time.Second, Node: 1, Kind: NVMCorrupt, Chunks: 2},
	})
	e.Run()
	want := []hit{
		{LinkFlap, time.Second},
		{NVMCorrupt, 2 * time.Second},
		{BuddyLoss, 3 * time.Second},
	}
	if len(hits) != len(want) {
		t.Fatalf("dispatched %d events, want %d", len(hits), len(want))
	}
	for i := range want {
		if hits[i] != want[i] {
			t.Errorf("dispatch %d = %+v, want %+v", i, hits[i], want[i])
		}
	}
}

func TestInjectorExpandsStormsAndResolvesOutages(t *testing.T) {
	tp := testTopo(t)
	e := sim.NewEnv()
	var flaps int
	var killed []Event
	in := NewInjector(e, 7, tp, Surfaces{
		Kill:     func(ev Event) { killed = append(killed, ev) },
		FlapLink: func(ev Event) { flaps++ },
	})
	in.ScheduleAll([]Event{
		{At: time.Second, Node: 0, Kind: LinkStorm, Duration: time.Second, Waves: 1},
		{At: 5 * time.Second, Kind: ZoneOutage, Zone: 1},
	})
	e.Run()
	// Wave 0 = rack 0 (2 nodes), wave 1 = rack 1 (2 nodes).
	if flaps != 4 {
		t.Fatalf("storm produced %d flaps, want 4", flaps)
	}
	if len(killed) != 1 || killed[0].Kind != ZoneOutage {
		t.Fatalf("kill surface saw %+v, want one zone-outage", killed)
	}
	if got := killed[0].Victims(tp); len(got) != 4 {
		t.Fatalf("outage resolves %d victims, want 4", len(got))
	}
}
