package container

import (
	"errors"
	"strconv"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"gnf/internal/clock"
)

var testImage = Image{Name: "gnf/firewall:1.0", SizeBytes: 4 << 20, MemoryBytes: 6 << 20, CPUPercent: 2}

func newTestRuntime(t *testing.T, opts ...RuntimeOption) (*Runtime, *clock.Virtual) {
	t.Helper()
	clk := clock.NewAutoVirtual()
	repo := NewRepository(clk, 100_000_000 /* 100 Mbit/s */, 5*time.Millisecond)
	repo.Push(testImage)
	repo.Push(Image{Name: "gnf/dnslb:1.0", SizeBytes: 2 << 20, MemoryBytes: 3 << 20, CPUPercent: 1})
	return NewRuntime("station-1", clk, repo, opts...), clk
}

func TestRepositoryPullCostsTransferTime(t *testing.T) {
	clk := clock.NewAutoVirtual()
	repo := NewRepository(clk, 100_000_000, 5*time.Millisecond)
	repo.Push(testImage)
	start := clk.Now()
	img, d, err := repo.Pull(testImage.Name)
	if err != nil {
		t.Fatalf("Pull: %v", err)
	}
	// 4 MiB at 100 Mbit/s = ~335ms + 5ms rtt.
	wantTransfer := time.Duration(testImage.SizeBytes*8*int64(time.Second)/100_000_000) + 5*time.Millisecond
	if d != wantTransfer {
		t.Fatalf("pull duration = %v, want %v", d, wantTransfer)
	}
	if got := clk.Since(start); got != wantTransfer {
		t.Fatalf("clock advanced %v, want %v", got, wantTransfer)
	}
	if img.Name != testImage.Name {
		t.Fatalf("image = %+v", img)
	}
	pulls, bytes := repo.PullStats()
	if pulls != 1 || bytes != testImage.SizeBytes {
		t.Fatalf("stats = %d, %d", pulls, bytes)
	}
}

func TestRepositoryUnknownImage(t *testing.T) {
	clk := clock.NewAutoVirtual()
	repo := NewRepository(clk, 0, 0)
	if _, _, err := repo.Pull("nope"); !errors.Is(err, ErrImageUnknown) {
		t.Fatalf("err = %v", err)
	}
}

func TestRepositoryInjectedFailure(t *testing.T) {
	clk := clock.NewAutoVirtual()
	repo := NewRepository(clk, 0, 0)
	repo.Push(testImage)
	boom := errors.New("repo outage")
	repo.SetFailure(boom)
	if _, _, err := repo.Pull(testImage.Name); !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
	repo.SetFailure(nil)
	if _, _, err := repo.Pull(testImage.Name); err != nil {
		t.Fatalf("after clearing: %v", err)
	}
}

func TestRepositoryListAndLookup(t *testing.T) {
	clk := clock.NewAutoVirtual()
	repo := NewRepository(clk, 0, 0)
	repo.Push(Image{Name: "b"})
	repo.Push(Image{Name: "a"})
	imgs := repo.Images()
	if len(imgs) != 2 || imgs[0].Name != "a" || imgs[1].Name != "b" {
		t.Fatalf("Images = %+v", imgs)
	}
	if _, ok := repo.Lookup("a"); !ok {
		t.Fatal("Lookup(a) missed")
	}
	if _, ok := repo.Lookup("zzz"); ok {
		t.Fatal("Lookup(zzz) hit")
	}
}

func TestLifecycleHappyPath(t *testing.T) {
	rt, clk := newTestRuntime(t)
	start := clk.Now()
	c, err := rt.Create(Config{Name: "fw0", Image: testImage.Name})
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	if c.State() != StateCreated {
		t.Fatalf("state = %v", c.State())
	}
	if err := c.Start(); err != nil {
		t.Fatalf("Start: %v", err)
	}
	if c.State() != StateRunning {
		t.Fatalf("state = %v", c.State())
	}
	// Cold create+start on virtual time: pull + create + start.
	if el := clk.Since(start); el < ContainerCosts.Create+ContainerCosts.Start {
		t.Fatalf("elapsed %v too small", el)
	}
	if err := c.Pause(); err != nil {
		t.Fatalf("Pause: %v", err)
	}
	if err := c.Unpause(); err != nil {
		t.Fatalf("Unpause: %v", err)
	}
	if err := c.Stop(); err != nil {
		t.Fatalf("Stop: %v", err)
	}
	if err := c.Remove(); err != nil {
		t.Fatalf("Remove: %v", err)
	}
	if c.State() != StateRemoved {
		t.Fatalf("state = %v", c.State())
	}
	if _, ok := rt.Get("fw0"); ok {
		t.Fatal("removed container still listed")
	}
}

func TestInvalidTransitions(t *testing.T) {
	rt, _ := newTestRuntime(t)
	c, _ := rt.Create(Config{Name: "x", Image: testImage.Name})
	if err := c.Stop(); !errors.Is(err, ErrBadState) {
		t.Fatalf("Stop created: %v", err)
	}
	if err := c.Pause(); !errors.Is(err, ErrBadState) {
		t.Fatalf("Pause created: %v", err)
	}
	c.Start()
	if err := c.Start(); !errors.Is(err, ErrBadState) {
		t.Fatalf("double Start: %v", err)
	}
	if err := c.Remove(); !errors.Is(err, ErrBadState) {
		t.Fatalf("Remove running: %v", err)
	}
	c.Stop()
	if err := c.Start(); err != nil {
		t.Fatalf("restart stopped: %v", err)
	}
	c.Stop()
	if err := c.Remove(); err != nil {
		t.Fatalf("Remove stopped: %v", err)
	}
	if err := c.Remove(); err != nil {
		t.Fatalf("Remove removed (should be idempotent): %v", err)
	}
}

func TestDuplicateNameRejected(t *testing.T) {
	rt, _ := newTestRuntime(t)
	if _, err := rt.Create(Config{Name: "dup", Image: testImage.Name}); err != nil {
		t.Fatal(err)
	}
	if _, err := rt.Create(Config{Name: "dup", Image: testImage.Name}); !errors.Is(err, ErrNameInUse) {
		t.Fatalf("err = %v", err)
	}
}

func TestAutoNameAssigned(t *testing.T) {
	rt, _ := newTestRuntime(t)
	c, err := rt.Create(Config{Image: testImage.Name})
	if err != nil {
		t.Fatal(err)
	}
	if c.Name() == "" || c.ID() == "" {
		t.Fatalf("name=%q id=%q", c.Name(), c.ID())
	}
}

func TestImageCacheWarmVsCold(t *testing.T) {
	rt, clk := newTestRuntime(t)
	_, d1, err := rt.EnsureImage(testImage.Name)
	if err != nil || d1 == 0 {
		t.Fatalf("cold pull: d=%v err=%v", d1, err)
	}
	before := clk.Now()
	_, d2, err := rt.EnsureImage(testImage.Name)
	if err != nil || d2 != 0 {
		t.Fatalf("warm pull: d=%v err=%v", d2, err)
	}
	if clk.Since(before) != 0 {
		t.Fatal("warm pull advanced the clock")
	}
	cold, warm := rt.CacheStats()
	if cold != 1 || warm != 1 {
		t.Fatalf("cache stats = %d cold, %d warm", cold, warm)
	}
	if err := rt.PrefetchImage("gnf/dnslb:1.0"); err != nil {
		t.Fatalf("prefetch: %v", err)
	}
}

// ensureFrom calls EnsureImage from n goroutines released together and
// returns each caller's error.
func ensureFrom(rt *Runtime, n int, image string) []error {
	errs := make([]error, n)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for i := range errs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			_, _, errs[i] = rt.EnsureImage(image)
		}()
	}
	close(start)
	wg.Wait()
	return errs
}

// Concurrent callers for one uncached image transfer it once. The
// repository runs on the wall clock so that the callers really do overlap
// the 20 ms transfer.
func TestEnsureImageSingleFlight(t *testing.T) {
	const callers = 16
	repo := NewRepository(clock.System(), 0, 20*time.Millisecond)
	repo.Push(testImage)
	rt := NewRuntime("station-1", clock.System(), repo)

	outage := errors.New("repository down")
	repo.SetFailure(outage)
	for i, err := range ensureFrom(rt, callers, testImage.Name) {
		if !errors.Is(err, outage) {
			t.Fatalf("caller %d during outage: %v", i, err)
		}
	}
	if cold, warm := rt.CacheStats(); cold != 0 || warm != 0 {
		t.Fatalf("failed pulls counted: %d cold, %d warm", cold, warm)
	}

	// A failed pull is not cached: the next callers retry, once.
	repo.SetFailure(nil)
	for i, err := range ensureFrom(rt, callers, testImage.Name) {
		if err != nil {
			t.Fatalf("caller %d: %v", i, err)
		}
	}
	if pulls, bytes := repo.PullStats(); pulls != 1 || bytes != testImage.SizeBytes {
		t.Fatalf("repository served %d pulls, %d bytes; want 1 pull of %d", pulls, bytes, testImage.SizeBytes)
	}
	if cold, warm := rt.CacheStats(); cold != 1 || warm != callers-1 {
		t.Fatalf("cache stats = %d cold, %d warm; want 1 and %d", cold, warm, callers-1)
	}
}

func TestCapacityEnforced(t *testing.T) {
	// Capacity fits exactly two instances of the 6 MiB image.
	rt, _ := newTestRuntime(t, WithCapacity(13<<20))
	if _, err := rt.Create(Config{Name: "a", Image: testImage.Name}); err != nil {
		t.Fatal(err)
	}
	if _, err := rt.Create(Config{Name: "b", Image: testImage.Name}); err != nil {
		t.Fatal(err)
	}
	if _, err := rt.Create(Config{Name: "c", Image: testImage.Name}); !errors.Is(err, ErrCapacity) {
		t.Fatalf("third create: %v", err)
	}
	// Removing frees the reservation.
	b, _ := rt.Get("b")
	b.Remove()
	if _, err := rt.Create(Config{Name: "c", Image: testImage.Name}); err != nil {
		t.Fatalf("create after remove: %v", err)
	}
	if rt.Capacity() != 13<<20 {
		t.Fatal("capacity accessor wrong")
	}
}

func TestUsageAggregation(t *testing.T) {
	rt, _ := newTestRuntime(t)
	a, _ := rt.Create(Config{Name: "a", Image: testImage.Name})
	b, _ := rt.Create(Config{Name: "b", Image: testImage.Name, CPUPercent: 10, ExtraMemory: 1 << 20})
	a.Start()
	b.Start()
	u := rt.Usage()
	if u.Containers != 2 {
		t.Fatalf("containers = %d", u.Containers)
	}
	wantMem := 2*testImage.MemoryBytes + 1<<20
	if u.MemoryBytes != wantMem {
		t.Fatalf("mem = %d, want %d", u.MemoryBytes, wantMem)
	}
	if u.CPUPercent != testImage.CPUPercent+10 {
		t.Fatalf("cpu = %v", u.CPUPercent)
	}
	b.Stop()
	if got := rt.Usage(); got.Containers != 1 {
		t.Fatalf("after stop: %+v", got)
	}
	if rt.MemoryInUse() != wantMem { // stopped keeps reservation
		t.Fatalf("reservation = %d", rt.MemoryInUse())
	}
}

type mapState struct {
	data                   []byte
	failExport, failImport bool
}

func (m *mapState) ExportState() ([]byte, error) {
	if m.failExport {
		return nil, errors.New("export boom")
	}
	return m.data, nil
}
func (m *mapState) ImportState(b []byte) error {
	if m.failImport {
		return errors.New("import boom")
	}
	m.data = append([]byte(nil), b...)
	return nil
}

func TestCheckpointRestore(t *testing.T) {
	rt, clk := newTestRuntime(t)
	c, _ := rt.Create(Config{Name: "nat", Image: testImage.Name})
	c.Start()
	src := &mapState{data: make([]byte, 64<<10)}
	for i := range src.data {
		src.data[i] = byte(i)
	}
	c.SetStateHandler(src)
	before := clk.Now()
	data, err := c.Checkpoint()
	if err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	if d := clk.Since(before); d != 64*ContainerCosts.CheckpointKB {
		t.Fatalf("checkpoint cost = %v, want %v", d, 64*ContainerCosts.CheckpointKB)
	}
	dst := &mapState{}
	c2, _ := rt.Create(Config{Name: "nat2", Image: testImage.Name})
	c2.SetStateHandler(dst)
	if err := c2.Restore(data); err != nil {
		t.Fatalf("Restore: %v", err)
	}
	if len(dst.data) != len(src.data) || dst.data[1000] != src.data[1000] {
		t.Fatal("state corrupted in transfer")
	}
}

func TestCheckpointErrors(t *testing.T) {
	rt, _ := newTestRuntime(t)
	c, _ := rt.Create(Config{Name: "x", Image: testImage.Name})
	if _, err := c.Checkpoint(); !errors.Is(err, ErrBadState) {
		t.Fatalf("checkpoint created: %v", err)
	}
	c.Start()
	if _, err := c.Checkpoint(); !errors.Is(err, ErrNoStateHandler) {
		t.Fatalf("checkpoint without handler: %v", err)
	}
	c.SetStateHandler(&mapState{failExport: true})
	if _, err := c.Checkpoint(); err == nil {
		t.Fatal("export failure swallowed")
	}
	c.SetStateHandler(&mapState{failImport: true})
	if err := c.Restore(nil); err == nil {
		t.Fatal("restore with failing import succeeded")
	}
	c.SetStateHandler(nil)
	if err := c.Restore(nil); !errors.Is(err, ErrNoStateHandler) {
		t.Fatalf("restore without handler: %v", err)
	}
}

func TestEventsEmitted(t *testing.T) {
	rt, _ := newTestRuntime(t)
	c, _ := rt.Create(Config{Name: "ev", Image: testImage.Name})
	c.Start()
	c.Stop()
	c.Remove()
	want := []EventType{EventPulled, EventCreated, EventStarted, EventStopped, EventRemoved}
	for _, w := range want {
		select {
		case ev := <-rt.Events():
			if ev.Type != w {
				t.Fatalf("event = %v, want %v", ev.Type, w)
			}
		default:
			t.Fatalf("missing event %v", w)
		}
	}
	if rt.EventsDropped() != 0 {
		t.Fatal("events dropped unexpectedly")
	}
}

func TestEventOverflowDropsNotBlocks(t *testing.T) {
	rt, _ := newTestRuntime(t)
	for i := 0; i < 300; i++ { // buffer is 256
		rt.emit(EventCreated, "x", "y")
	}
	if rt.EventsDropped() == 0 {
		t.Fatal("no drops counted after overflow")
	}
}

// Property: for any sequence of create/remove operations, memory in use is
// exactly footprint * live containers.
func TestMemoryAccountingProperty(t *testing.T) {
	f := func(ops []bool) bool {
		rt, _ := newTestRuntime(t)
		var live []*Container
		n := 0
		for _, create := range ops {
			if create || len(live) == 0 {
				n++
				c, err := rt.Create(Config{Name: "c" + strconv.Itoa(n), Image: testImage.Name})
				if err != nil {
					return false
				}
				live = append(live, c)
			} else {
				c := live[len(live)-1]
				live = live[:len(live)-1]
				if err := c.Remove(); err != nil {
					return false
				}
			}
		}
		return rt.MemoryInUse() == uint64(len(live))*testImage.MemoryBytes
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}
