package manager

import (
	"fmt"
	"testing"

	"gnf/internal/agent"
	"gnf/internal/metrics"
)

// The manager's event histories are append-only on a long-lived control
// plane; each must trim to historyCap instead of growing without bound.

func TestMigrationHistoryCapped(t *testing.T) {
	m := &Manager{metrics: metrics.NewRegistry()}
	const extra = 100
	for i := 0; i < historyCap+extra; i++ {
		m.recordMigration(MigrationReport{Client: "phone", Chain: fmt.Sprintf("ch-%d", i)})
	}
	got := m.Migrations()
	if len(got) != historyCap {
		t.Fatalf("len(Migrations()) = %d, want %d", len(got), historyCap)
	}
	// The oldest entries are the ones dropped.
	if want := fmt.Sprintf("ch-%d", extra); got[0].Chain != want {
		t.Fatalf("oldest kept = %s, want %s", got[0].Chain, want)
	}
	if want := fmt.Sprintf("ch-%d", historyCap+extra-1); got[len(got)-1].Chain != want {
		t.Fatalf("newest kept = %s, want %s", got[len(got)-1].Chain, want)
	}
}

func TestScaleEventHistoryCapped(t *testing.T) {
	m := &Manager{}
	const extra = 50
	m.auto.mu.Lock()
	for i := 0; i < historyCap+extra; i++ {
		m.recordScaleEventsLocked(ScaleEvent{Kinds: fmt.Sprintf("k-%d", i)})
	}
	m.auto.mu.Unlock()
	got := m.ScaleEvents()
	if len(got) != historyCap {
		t.Fatalf("len(ScaleEvents()) = %d, want %d", len(got), historyCap)
	}
	if want := fmt.Sprintf("k-%d", extra); got[0].Kinds != want {
		t.Fatalf("oldest kept = %s, want %s", got[0].Kinds, want)
	}
}

func TestNotificationHistoryCapped(t *testing.T) {
	m := &Manager{}
	const extra = 25
	for i := 0; i < historyCap+extra; i++ {
		m.recordNotification(agent.Alert{Station: fmt.Sprintf("st-%d", i)})
	}
	got := m.Notifications()
	if len(got) != historyCap {
		t.Fatalf("len(Notifications()) = %d, want %d", len(got), historyCap)
	}
	if want := fmt.Sprintf("st-%d", extra); got[0].Station != want {
		t.Fatalf("oldest kept = %s, want %s", got[0].Station, want)
	}
}

func TestFailoverHistoryCapped(t *testing.T) {
	m := &Manager{}
	const extra = 10
	for i := 0; i < historyCap+extra; i++ {
		m.recordFailover(FailoverReport{Chain: fmt.Sprintf("ch-%d", i)})
	}
	got := m.Failovers()
	if len(got) != historyCap {
		t.Fatalf("len(Failovers()) = %d, want %d", len(got), historyCap)
	}
	if want := fmt.Sprintf("ch-%d", extra); got[0].Chain != want {
		t.Fatalf("oldest kept = %s, want %s", got[0].Chain, want)
	}
}
