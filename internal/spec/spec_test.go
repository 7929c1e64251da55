package spec

import (
	"encoding/json"
	"slices"
	"strings"
	"testing"
	"time"

	"gnf/internal/agent"
	"gnf/internal/clock"
	"gnf/internal/manager"
	"gnf/internal/nf"
)

func chain(name, kind string, params map[string]string) Chain {
	return Chain{ChainSpec: manager.ChainSpec{
		Name:      name,
		Functions: []agent.NFSpec{{Kind: kind, Name: kind + "-0", Params: nf.Params(params)}},
	}}
}

func TestHashCanonicalUnderReordering(t *testing.T) {
	a := &Spec{Clients: []Client{
		{ID: "tablet", Chains: []Chain{chain("b", "counter", nil), chain("a", "firewall", map[string]string{"k": "v", "x": "y"})}},
		{ID: "phone", Chains: []Chain{chain("fw", "firewall", nil)}},
	}}
	b := &Spec{Version: 1, Clients: []Client{
		{ID: "phone", Chains: []Chain{chain("fw", "firewall", nil)}},
		{ID: "tablet", Chains: []Chain{chain("a", "firewall", map[string]string{"x": "y", "k": "v"}), chain("b", "counter", nil)}},
	}}
	if a.Hash() != b.Hash() {
		t.Fatalf("reordered specs hash differently:\n%s\n%s", a.Hash(), b.Hash())
	}
	c := b.Clone()
	c.Clients[0].Chains[0].MaxRTTMs = 9
	if c.Hash() == b.Hash() {
		t.Fatal("different content, same hash")
	}
	// Hash must not mutate the receiver's declaration order.
	if a.Clients[0].ID != "tablet" {
		t.Fatal("Hash normalized the receiver in place")
	}
}

func TestCloneIsDeep(t *testing.T) {
	orig := &Spec{Clients: []Client{{ID: "phone", Chains: []Chain{chain("fw", "firewall", map[string]string{"policy": "accept"})}}}}
	cp := orig.Clone()
	cp.Clients[0].Chains[0].Functions[0].Params["policy"] = "drop"
	if orig.Clients[0].Chains[0].Functions[0].Params["policy"] != "accept" {
		t.Fatal("clone shares param maps with the original")
	}
}

func TestValidate(t *testing.T) {
	valid := func() *Spec {
		return &Spec{Clients: []Client{{ID: "phone", Chains: []Chain{chain("fw", "firewall", nil)}}}}
	}
	if err := valid().Validate(); err != nil {
		t.Fatalf("valid spec rejected: %v", err)
	}
	cases := []struct {
		name string
		mut  func(*Spec)
		want string
	}{
		{"bad version", func(s *Spec) { s.Version = 7 }, "unsupported version"},
		{"bad strategy", func(s *Spec) { s.Strategy = "teleport" }, "unknown strategy"},
		{"empty client id", func(s *Spec) { s.Clients[0].ID = "" }, "empty id"},
		{"dup client", func(s *Spec) { s.Clients = append(s.Clients, s.Clients[0]) }, "duplicate client"},
		{"empty chain name", func(s *Spec) { s.Clients[0].Chains[0].Name = "" }, "empty name"},
		{"dup chain", func(s *Spec) {
			s.Clients[0].Chains = append(s.Clients[0].Chains, s.Clients[0].Chains[0])
		}, "duplicate chain"},
		{"no functions", func(s *Spec) { s.Clients[0].Chains[0].Functions = nil }, "no functions"},
		{"no kind", func(s *Spec) { s.Clients[0].Chains[0].Functions[0].Kind = "" }, "no kind"},
		{"negative budget", func(s *Spec) { s.Clients[0].Chains[0].MaxRTTMs = -1 }, "negative max_rtt_ms"},
		{"window no enable", func(s *Spec) {
			s.Clients[0].Chains[0].Schedule = &manager.Window{}
		}, "no enable_at"},
		{"window inverted", func(s *Spec) {
			s.Clients[0].Chains[0].Schedule = &manager.Window{
				EnableAt: clock.Epoch.Add(time.Hour), DisableAt: clock.Epoch,
			}
		}, "disables before"},
		{"pool missing fields", func(s *Spec) { s.Pools = []PoolTarget{{Replicas: 2}} }, "pool target needs"},
		{"pool zero replicas", func(s *Spec) {
			s.Pools = []PoolTarget{{Station: "st-a", Kinds: "firewall", ConfigHash: "h", Replicas: 0}}
		}, "replicas >= 1"},
		{"pool duplicate", func(s *Spec) {
			p := PoolTarget{Station: "st-a", Kinds: "firewall", ConfigHash: "h", Replicas: 2}
			s.Pools = []PoolTarget{p, p}
		}, "duplicate pool"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := valid()
			tc.mut(s)
			err := s.Validate()
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("err = %v, want contains %q", err, tc.want)
			}
		})
	}
	// A known strategy passes.
	s := valid()
	s.Strategy = "live"
	if err := s.Validate(); err != nil {
		t.Fatalf("live rejected: %v", err)
	}
}

// actualFor builds an Actual with one connected client hosting the given
// desired chains, settled in place — the converged picture.
func actualFor(desired *Spec, station string) *Actual {
	a := &Actual{Clients: map[string]ActualClient{}}
	for _, dc := range desired.Clients {
		ac := ActualClient{Station: station, Offload: dc.Offload, Chains: map[string]ActualChain{}, Windows: map[string]manager.Window{}}
		at := station
		if dc.Offload != "" {
			at = dc.Offload
		}
		for _, ch := range dc.Chains {
			ac.Chains[ch.Name] = ActualChain{Spec: ch.ChainSpec, DeployedOn: at, Settled: true}
			if ch.Schedule != nil {
				ac.Windows[ch.Name] = *ch.Schedule
			}
		}
		a.Clients[dc.ID] = ac
	}
	return a
}

func kinds(actions []Action) []ActionKind {
	out := make([]ActionKind, len(actions))
	for i, a := range actions {
		out[i] = a.Kind
	}
	return out
}

func TestDiffConvergedIsEmpty(t *testing.T) {
	desired := &Spec{Clients: []Client{{ID: "phone", Chains: []Chain{chain("fw", "firewall", nil), chain("acct", "counter", nil)}}}}
	if d := Diff(desired, actualFor(desired, "st-a")); len(d) != 0 {
		t.Fatalf("converged diff = %+v", d)
	}
}

func TestDiffFreshAttach(t *testing.T) {
	desired := &Spec{Clients: []Client{{ID: "phone", Chains: []Chain{chain("fw", "firewall", nil)}}}}
	actual := &Actual{Clients: map[string]ActualClient{
		"phone": {Station: "st-a", Chains: map[string]ActualChain{}},
	}}
	d := Diff(desired, actual)
	if len(d) != 1 || d[0].Kind != ActionAttach || d[0].Chain == nil || d[0].Chain.Name != "fw" {
		t.Fatalf("diff = %+v", d)
	}
}

func TestDiffDetachUndesired(t *testing.T) {
	desired := &Spec{Clients: []Client{{ID: "phone", Chains: []Chain{chain("fw", "firewall", nil)}}}}
	actual := actualFor(desired, "st-a")
	ac := actual.Clients["phone"]
	ac.Chains["old"] = ActualChain{Spec: manager.ChainSpec{Name: "old"}, DeployedOn: "st-a", Settled: true}
	actual.Clients["phone"] = ac
	d := Diff(desired, actual)
	if len(d) != 1 || d[0].Kind != ActionDetach || d[0].ChainName != "old" {
		t.Fatalf("diff = %+v", d)
	}
}

func TestDiffChangedConfigReplaces(t *testing.T) {
	desired := &Spec{Clients: []Client{{ID: "phone", Chains: []Chain{chain("fw", "firewall", map[string]string{"policy": "drop"})}}}}
	actual := &Actual{Clients: map[string]ActualClient{
		"phone": {Station: "st-a", Chains: map[string]ActualChain{
			"fw": {Spec: chain("fw", "firewall", map[string]string{"policy": "accept"}).ChainSpec, DeployedOn: "st-a", Settled: true},
		}},
	}}
	d := Diff(desired, actual)
	got := kinds(d)
	if len(got) != 2 || got[0] != ActionDetach || got[1] != ActionAttach {
		t.Fatalf("diff kinds = %v (%+v)", got, d)
	}
}

func TestDiffDriftMigrates(t *testing.T) {
	desired := &Spec{Clients: []Client{{ID: "phone", Chains: []Chain{chain("fw", "firewall", nil)}}}}
	actual := &Actual{Clients: map[string]ActualClient{
		"phone": {Station: "st-b", Chains: map[string]ActualChain{
			"fw": {Spec: chain("fw", "firewall", nil).ChainSpec, DeployedOn: "st-a", Settled: false},
		}},
	}}
	d := Diff(desired, actual)
	if len(d) != 1 || d[0].Kind != ActionMigrate || d[0].Station != "st-b" {
		t.Fatalf("diff = %+v", d)
	}
}

func TestDiffOffloadTransitions(t *testing.T) {
	base := []Chain{chain("fw", "firewall", nil)}
	t.Run("offload desired", func(t *testing.T) {
		desired := &Spec{Clients: []Client{{ID: "phone", Offload: "cloud-1", Chains: base}}}
		actual := &Actual{Clients: map[string]ActualClient{
			"phone": {Station: "st-a", Chains: map[string]ActualChain{
				"fw": {Spec: base[0].ChainSpec, DeployedOn: "st-a", Settled: true},
			}},
		}}
		d := Diff(desired, actual)
		if len(d) != 1 || d[0].Kind != ActionOffload || d[0].Site != "cloud-1" {
			t.Fatalf("diff = %+v", d)
		}
	})
	t.Run("recall desired", func(t *testing.T) {
		desired := &Spec{Clients: []Client{{ID: "phone", Chains: base}}}
		actual := &Actual{Clients: map[string]ActualClient{
			"phone": {Station: "st-a", Offload: "cloud-1", Chains: map[string]ActualChain{
				"fw": {Spec: base[0].ChainSpec, DeployedOn: "cloud-1", Settled: true},
			}},
		}}
		d := Diff(desired, actual)
		if len(d) != 1 || d[0].Kind != ActionRecall {
			t.Fatalf("diff = %+v", d)
		}
	})
	t.Run("site change recalls first", func(t *testing.T) {
		desired := &Spec{Clients: []Client{{ID: "phone", Offload: "cloud-2", Chains: base}}}
		actual := &Actual{Clients: map[string]ActualClient{
			"phone": {Station: "st-a", Offload: "cloud-1", Chains: map[string]ActualChain{
				"fw": {Spec: base[0].ChainSpec, DeployedOn: "cloud-1", Settled: true},
			}},
		}}
		d := Diff(desired, actual)
		if len(d) != 1 || d[0].Kind != ActionRecall {
			t.Fatalf("site change diff = %+v (want recall only; offload lands next pass)", d)
		}
	})
}

func TestDiffDisconnectedClientDefersAttach(t *testing.T) {
	desired := &Spec{Clients: []Client{{ID: "phone", Chains: []Chain{chain("fw", "firewall", nil)}}}}
	// Station "" = roaming-disconnected: attach must wait, but a stale
	// chain not in the spec still detaches (the manager accepts that).
	actual := &Actual{Clients: map[string]ActualClient{
		"phone": {Station: "", Chains: map[string]ActualChain{
			"old": {Spec: manager.ChainSpec{Name: "old"}, DeployedOn: "st-a"},
		}},
	}}
	d := Diff(desired, actual)
	if len(d) != 1 || d[0].Kind != ActionDetach || d[0].ChainName != "old" {
		t.Fatalf("diff = %+v", d)
	}
}

func TestDiffScopeRules(t *testing.T) {
	desired := &Spec{Clients: []Client{{ID: "ghost", Chains: []Chain{chain("fw", "firewall", nil)}}}}
	actual := &Actual{Clients: map[string]ActualClient{
		"phone": {Station: "st-a", Chains: map[string]ActualChain{
			"other": {Spec: manager.ChainSpec{Name: "other"}, DeployedOn: "st-a", Settled: true},
		}},
	}}
	// ghost never attached -> deferred; phone unlisted -> untouched.
	if d := Diff(desired, actual); len(d) != 0 {
		t.Fatalf("diff = %+v, want empty", d)
	}
}

func TestDiffSchedules(t *testing.T) {
	w1 := manager.Window{EnableAt: clock.Epoch.Add(time.Hour)}
	w2 := manager.Window{EnableAt: clock.Epoch.Add(2 * time.Hour)}
	withWin := chain("fw", "firewall", nil)
	withWin.Schedule = &w1
	t.Run("add", func(t *testing.T) {
		desired := &Spec{Clients: []Client{{ID: "phone", Chains: []Chain{withWin}}}}
		actual := &Actual{Clients: map[string]ActualClient{
			"phone": {Station: "st-a", Chains: map[string]ActualChain{
				"fw": {Spec: withWin.ChainSpec, DeployedOn: "st-a", Settled: true},
			}},
		}}
		d := Diff(desired, actual)
		if len(d) != 1 || d[0].Kind != ActionSchedule || *d[0].Window != w1 {
			t.Fatalf("diff = %+v", d)
		}
	})
	t.Run("change", func(t *testing.T) {
		desired := &Spec{Clients: []Client{{ID: "phone", Chains: []Chain{withWin}}}}
		actual := &Actual{Clients: map[string]ActualClient{
			"phone": {Station: "st-a",
				Chains:  map[string]ActualChain{"fw": {Spec: withWin.ChainSpec, DeployedOn: "st-a", Settled: true}},
				Windows: map[string]manager.Window{"fw": w2}},
		}}
		d := Diff(desired, actual)
		if len(d) != 1 || d[0].Kind != ActionSchedule || *d[0].Window != w1 {
			t.Fatalf("diff = %+v", d)
		}
	})
	t.Run("remove", func(t *testing.T) {
		plain := chain("fw", "firewall", nil)
		desired := &Spec{Clients: []Client{{ID: "phone", Chains: []Chain{plain}}}}
		actual := &Actual{Clients: map[string]ActualClient{
			"phone": {Station: "st-a",
				Chains:  map[string]ActualChain{"fw": {Spec: plain.ChainSpec, DeployedOn: "st-a", Settled: true}},
				Windows: map[string]manager.Window{"fw": w1}},
		}}
		d := Diff(desired, actual)
		if len(d) != 1 || d[0].Kind != ActionUnschedule {
			t.Fatalf("diff = %+v", d)
		}
	})
}

func TestDiffPools(t *testing.T) {
	desired := &Spec{Pools: []PoolTarget{{Station: "st-a", Kinds: "firewall", ConfigHash: "h1", Replicas: 3}}}
	t.Run("scale", func(t *testing.T) {
		actual := &Actual{Clients: map[string]ActualClient{}, Pools: map[string][]PoolState{
			"st-a": {{Kinds: "firewall", ConfigHash: "h1", Refs: 2, Replicas: 1}},
		}}
		d := Diff(desired, actual)
		if len(d) != 1 || d[0].Kind != ActionScale || d[0].Replicas != 3 {
			t.Fatalf("diff = %+v", d)
		}
	})
	t.Run("at target", func(t *testing.T) {
		actual := &Actual{Clients: map[string]ActualClient{}, Pools: map[string][]PoolState{
			"st-a": {{Kinds: "firewall", ConfigHash: "h1", Refs: 2, Replicas: 3}},
		}}
		if d := Diff(desired, actual); len(d) != 0 {
			t.Fatalf("diff = %+v", d)
		}
	})
	t.Run("unreferenced pool deferred", func(t *testing.T) {
		actual := &Actual{Clients: map[string]ActualClient{}, Pools: map[string][]PoolState{
			"st-a": {{Kinds: "firewall", ConfigHash: "h1", Refs: 0, Replicas: 1}},
		}}
		if d := Diff(desired, actual); len(d) != 0 {
			t.Fatalf("diff = %+v, want empty (reaper owns unreferenced pools)", d)
		}
	})
	t.Run("absent pool deferred", func(t *testing.T) {
		actual := &Actual{Clients: map[string]ActualClient{}}
		if d := Diff(desired, actual); len(d) != 0 {
			t.Fatalf("diff = %+v, want empty", d)
		}
	})
}

func TestActionKeyStable(t *testing.T) {
	a := Action{Kind: ActionAttach, Client: "phone", ChainName: "fw", Reason: "first sighting"}
	b := Action{Kind: ActionAttach, Client: "phone", ChainName: "fw", Reason: "retry"}
	if a.Key() != b.Key() {
		t.Fatal("reason changed the action key; backoff would never find its entry")
	}
	c := Action{Kind: ActionDetach, Client: "phone", ChainName: "fw"}
	if a.Key() == c.Key() {
		t.Fatal("distinct actions share a key")
	}
}

// FuzzSpec feeds JSON documents through everything a PUT /api/spec runs on
// them: unmarshalling, Validate, Normalize and Hash. None may panic;
// Normalize is idempotent; and a spec Validate accepts hashes the same with
// its clients, each client's chains and its pools in reverse order.
func FuzzSpec(f *testing.F) {
	for _, seed := range []string{
		`{}`,
		`{"version":1,"strategy":"live"}`,
		`{"clients":[{"id":"tablet","chains":[{"name":"b","functions":[{"kind":"counter","name":"c"}]},` +
			`{"name":"a","functions":[{"kind":"firewall","name":"f","params":{"x":"y","k":"v"}}],"max_rtt_ms":5}]},` +
			`{"id":"phone","offload":"nimbus","chains":[{"name":"web","functions":[{"kind":"nat","name":"n","affinity":"near-client"},` +
			`{"kind":"counter","name":"c","affinity":"aggregate"}],"schedule":{"enable_at":"2024-01-01T00:00:00Z","disable_at":"2024-01-02T00:00:00Z"}}]}],` +
			`"pools":[{"station":"st-b","kinds":"counter","config_hash":"h","replicas":2},{"station":"st-a","kinds":"counter","config_hash":"h","replicas":1}]}`,
		`{"clients":[{"id":"a"},{"id":"a"}]}`,
		`{"clients":[{"id":"a","chains":[{"name":"x","functions":[{"kind":"counter","affinity":"bogus"}]}]}]}`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, raw []byte) {
		var s Spec
		if json.Unmarshal(raw, &s) != nil {
			return
		}
		valid := s.Validate() == nil
		hash := s.Hash()

		once := s.Clone()
		once.Normalize()
		twice := once.Clone()
		twice.Normalize()
		a, _ := json.Marshal(once)
		b, _ := json.Marshal(twice)
		if string(a) != string(b) {
			t.Fatalf("Normalize is not idempotent:\n%s\n%s", a, b)
		}
		if !valid {
			return
		}
		rev := s.Clone()
		slices.Reverse(rev.Clients)
		for i := range rev.Clients {
			slices.Reverse(rev.Clients[i].Chains)
		}
		slices.Reverse(rev.Pools)
		if got := rev.Hash(); got != hash {
			t.Fatalf("reordering a valid spec changed its hash: %s, was %s", got, hash)
		}
	})
}
