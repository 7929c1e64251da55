package packet

import (
	"fmt"
	"testing"
)

var benchFrame = BuildUDP(
	MAC{2, 0, 0, 0, 0, 1}, MAC{2, 0, 0, 0, 0, 2},
	IP{10, 0, 0, 1}, IP{10, 0, 0, 2}, 40000, 53, make([]byte, 470))

func BenchmarkParserParseUDP(b *testing.B) {
	var p Parser
	b.SetBytes(int64(len(benchFrame)))
	for i := 0; i < b.N; i++ {
		if err := p.Parse(benchFrame); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkParserParseTCP(b *testing.B) {
	frame := BuildTCP(MAC{2, 0, 0, 0, 0, 1}, MAC{2, 0, 0, 0, 0, 2},
		IP{10, 0, 0, 1}, IP{10, 0, 0, 2}, 40000, 80, TCPOptions{Flags: TCPAck}, make([]byte, 470))
	var p Parser
	b.SetBytes(int64(len(frame)))
	for i := 0; i < b.N; i++ {
		if err := p.Parse(frame); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkBuildUDP(b *testing.B) {
	payload := make([]byte, 470)
	for i := 0; i < b.N; i++ {
		BuildUDP(MAC{2, 0, 0, 0, 0, 1}, MAC{2, 0, 0, 0, 0, 2},
			IP{10, 0, 0, 1}, IP{10, 0, 0, 2}, 40000, 53, payload)
	}
}

func BenchmarkChecksum1500(b *testing.B) {
	buf := make([]byte, 1500)
	b.SetBytes(1500)
	for i := 0; i < b.N; i++ {
		Checksum(buf)
	}
}

// BenchmarkRewriteNAT is the NAT's rewrite at three frame sizes: flat in
// length since the checksums are patched, linear when they were re-summed.
func BenchmarkRewriteNAT(b *testing.B) {
	for _, size := range []int{64, 512, 1500} {
		b.Run(fmt.Sprint(size), func(b *testing.B) {
			frame := udpFrame(size - EthernetHeaderLen - IPv4HeaderLen - UDPHeaderLen)
			rw := Rewrite{SrcIP: &rwNewSrc, SrcPort: &rwNewSPort, SrcMAC: &rwNewMACa}
			for i := 0; i < b.N; i++ {
				if err := rw.Apply(frame); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkDNSDecode(b *testing.B) {
	q := NewDNSQuery(1, "edge.services.gnf.example")
	resp := AnswerA(q, 300, IP{10, 1, 1, 1}, IP{10, 1, 1, 2})
	wire, err := resp.Append(nil)
	if err != nil {
		b.Fatal(err)
	}
	var m DNSMessage
	for i := 0; i < b.N; i++ {
		if err := m.Decode(wire); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDNSAppend(b *testing.B) {
	q := NewDNSQuery(1, "edge.services.gnf.example")
	resp := AnswerA(q, 300, IP{10, 1, 1, 1})
	buf := make([]byte, 0, 256)
	for i := 0; i < b.N; i++ {
		if _, err := resp.Append(buf[:0]); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkHTTPParse(b *testing.B) {
	raw := BuildHTTPRequest("GET", "www.example.com", "/index.html",
		map[string]string{"User-Agent": "gnf-bench", "Accept": "*/*"}, nil)
	for i := 0; i < b.N; i++ {
		if _, err := ParseHTTPRequest(raw); err != nil {
			b.Fatal(err)
		}
	}
}
