package wire

import (
	"encoding/json"
	"sync"
	"testing"
)

func BenchmarkCallRoundTrip(b *testing.B) {
	srv, err := NewServer("127.0.0.1:0", func(p *Peer) {
		p.Handle("echo", func(body json.RawMessage) (any, error) {
			return json.RawMessage(body), nil
		})
	})
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Close()
	p, err := Dial(srv.Addr())
	if err != nil {
		b.Fatal(err)
	}
	go p.Run()
	defer p.Close()

	in := map[string]string{"key": "value", "station": "st-a"}
	var out map[string]string
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := p.Call("echo", in, &out); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCallBlob256K moves a 256 KiB raw section — a NAT chain's
// checkpoint is about that — to the peer and back in one Call: the two
// transfers (checkpoint up, restore down) a stateful roam pays for inside its
// freeze window, next to BenchmarkCallRoundTrip's empty-frame cost. As base64
// in the JSON body each of the two took 5.5 ms.
func BenchmarkCallBlob256K(b *testing.B) {
	srv := startBlobEcho(b)
	p, err := Dial(srv.Addr())
	if err != nil {
		b.Fatal(err)
	}
	go p.Run()
	defer p.Close()

	in := blobMsg{Tag: "state", Data: everyByte(256 << 10)}
	b.SetBytes(int64(len(in.Data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := p.Call("blob", in, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCallContention measures the write-mutex cost of fanning many
// concurrent calls over one peer: "calls" issues n independent Calls (each
// rendering its own head, then taking wmu for its own write), "batch" sends
// the same n requests as one CallBatch (one buffer of heads, one wmu
// acquisition, one write). The gap is what steer coalescing buys during a
// handoff storm.
func BenchmarkCallContention(b *testing.B) {
	srv, err := NewServer("127.0.0.1:0", func(p *Peer) {
		p.Handle("echo", func(body json.RawMessage) (any, error) {
			return json.RawMessage(body), nil
		})
	})
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Close()
	p, err := Dial(srv.Addr())
	if err != nil {
		b.Fatal(err)
	}
	go p.Run()
	defer p.Close()

	const fan = 16
	in := map[string]string{"client": "c01", "via": "st-a"}

	b.Run("calls", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			var wg sync.WaitGroup
			errs := make([]error, fan)
			for j := 0; j < fan; j++ {
				wg.Add(1)
				go func(j int) {
					defer wg.Done()
					var out map[string]string
					errs[j] = p.Call("echo", in, &out)
				}(j)
			}
			wg.Wait()
			for _, err := range errs {
				if err != nil {
					b.Fatal(err)
				}
			}
		}
	})
	b.Run("batch", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			calls := make([]BatchCall, fan)
			outs := make([]map[string]string, fan)
			for j := range calls {
				calls[j] = BatchCall{Method: "echo", In: in, Out: &outs[j]}
			}
			for _, err := range p.CallBatch(calls) {
				if err != nil {
					b.Fatal(err)
				}
			}
		}
	})
}

// BenchmarkNotifyThroughput sends b.N notifications and stops the clock once
// the receiver has handled or dropped every one: a receiver that falls more
// than its queue behind drops the oldest, so the handled count alone may
// never reach b.N. The drops are reported per run.
func BenchmarkNotifyThroughput(b *testing.B) {
	done := make(chan struct{}, 1)
	count := 0
	var server *Peer
	srv, err := NewServer("127.0.0.1:0", func(p *Peer) {
		server = p
		p.HandleNotify("tick", func(json.RawMessage) {
			count++
			// The newest notification always queues, so the last one sent
			// is handled, and by then every drop is counted.
			if count+int(p.DroppedNotifies()) == b.N {
				done <- struct{}{}
			}
		})
	})
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Close()
	p, err := Dial(srv.Addr())
	if err != nil {
		b.Fatal(err)
	}
	go p.Run()
	defer p.Close()

	payload := map[string]int{"seq": 1}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := p.Notify("tick", payload); err != nil {
			b.Fatal(err)
		}
	}
	<-done
	b.StopTimer()
	b.ReportMetric(float64(server.DroppedNotifies()), "dropped/run")
}
