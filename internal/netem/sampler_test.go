package netem

import (
	"sync"
	"testing"

	"gnf/internal/packet"
)

// sinkTaps keeps every tap drained, returning delivered pooled frames so
// counters are the injections' only residue.
func sinkTaps(tn *testNet) {
	for _, tap := range tn.taps {
		go func(ch chan []byte) {
			for f := range ch {
				packet.ReturnFrame(f)
			}
		}(tap)
	}
}

func samplerFrame(srcH, dstH byte, srcPort uint16) []byte {
	tmpl := udpFrame(srcH, dstH, srcPort, 9)
	f := packet.BorrowFrame()[:len(tmpl)]
	copy(f, tmpl)
	return f
}

func TestFrameSamplerOneInN(t *testing.T) {
	tn := newTestNet(t, 2)
	sinkTaps(tn)

	tn.sw.EnableSampling(10)
	// Pin a redirect so sampled verdicts are deterministic.
	inPort := PortID(1)
	tn.sw.AddRule(Rule{Priority: 10, Match: Match{InPort: &inPort}, Action: ActionRedirect, OutPort: 2})

	const frames = 200
	for i := 0; i < frames; i++ {
		tn.sw.Inject(1, samplerFrame(1, 2, uint16(1000+i)))
	}
	if got := tn.sw.SampledFrames(); got != frames/10 {
		t.Fatalf("SampledFrames = %d, want %d", got, frames/10)
	}
	samples := tn.sw.Samples()
	if len(samples) != frames/10 {
		t.Fatalf("len(Samples) = %d, want %d", len(samples), frames/10)
	}
	for _, s := range samples {
		if s.In != 1 || s.Out != 2 || s.Action != ActionRedirect {
			t.Fatalf("unexpected sample %+v", s)
		}
	}
	if st := tn.sw.Stats(); st.SampledFrames != frames/10 {
		t.Fatalf("Stats().SampledFrames = %d", st.SampledFrames)
	}

	tn.sw.DisableSampling()
	tn.sw.Inject(1, samplerFrame(1, 2, 42))
	if got := tn.sw.SampledFrames(); got != 0 {
		t.Fatalf("SampledFrames after disable = %d", got)
	}
}

func TestFrameSamplerBatchPathAndRunCounters(t *testing.T) {
	tn := newTestNet(t, 2)
	sinkTaps(tn)

	tn.sw.EnableSampling(10)
	inPort := PortID(1)
	tn.sw.AddRule(Rule{Priority: 10, Match: Match{InPort: &inPort}, Action: ActionRedirect, OutPort: 2})

	// Same flow throughout: the batch path should establish one run per
	// batch (first frame scans, the rest reuse) and still sample 1 in 10.
	const batches, per = 5, 40
	for b := 0; b < batches; b++ {
		batch := make([][]byte, per)
		for i := range batch {
			batch[i] = samplerFrame(1, 2, 7777)
		}
		tn.sw.InjectBatch(1, batch)
	}
	st := tn.sw.Stats()
	if st.BatchFrames != batches*per {
		t.Fatalf("BatchFrames = %d, want %d", st.BatchFrames, batches*per)
	}
	if st.BatchRuns == 0 || st.BatchRuns > batches {
		t.Fatalf("BatchRuns = %d, want 1..%d", st.BatchRuns, batches)
	}
	if st.SampledFrames != batches*per/10 {
		t.Fatalf("SampledFrames = %d, want %d", st.SampledFrames, batches*per/10)
	}
	for _, s := range tn.sw.Samples() {
		if s.Action != ActionRedirect || s.Out != 2 {
			t.Fatalf("unexpected sample %+v", s)
		}
	}
}

// TestFrameSamplerCountsAcrossUnevenBatches: the batch path adds a whole
// batch to the rx counter at once and numbers its frames from the result.
// Two ports feeding batches whose sizes share nothing with N, at the same
// time, must still sample exactly ⌊frames/N⌋ each.
func TestFrameSamplerCountsAcrossUnevenBatches(t *testing.T) {
	tn := newTestNet(t, 2)
	sinkTaps(tn)
	const every = 10
	tn.sw.EnableSampling(every)

	sizes := map[PortID][]int{1: {7, 13, 1, 32, 9, 64, 3}, 2: {5, 1, 1, 31, 17, 2}}
	var wg sync.WaitGroup
	for in, batches := range sizes {
		wg.Add(1)
		go func(in PortID, batches []int) {
			defer wg.Done()
			for round := 0; round < 20; round++ {
				for _, n := range batches {
					batch := make([][]byte, n)
					for i := range batch {
						batch[i] = samplerFrame(byte(in), byte(3-in), 7777)
					}
					tn.sw.InjectBatch(in, batch)
				}
			}
		}(in, batches)
	}
	wg.Wait()

	perPort := map[PortID]int{}
	for _, s := range tn.sw.Samples() {
		perPort[s.In]++
	}
	for in, batches := range sizes {
		frames := 0
		for _, n := range batches {
			frames += 20 * n
		}
		if perPort[in] != frames/every {
			t.Errorf("port %d: sampled %d of %d frames, want %d", in, perPort[in], frames, frames/every)
		}
	}
}
