package ospf

import (
	"reflect"
	"testing"
)

// FuzzDecodePacket feeds arbitrary bytes to the wire decoder. DecodePacket
// must never panic, and whatever it accepts must survive a round trip: a
// decoded Hello re-marshals to bytes that decode to the same Hello, and a
// decoded LS Update re-marshals to bytes that decode to the same LSAs.
func FuzzDecodePacket(f *testing.F) {
	f.Add(MarshalHello(&Hello{Router: ip("10.0.0.1"), Priority: 1}))
	f.Add(MarshalHello(&Hello{
		Router: ip("10.0.0.1"), Priority: 5,
		DR: ip("10.0.0.9"), BDR: ip("10.0.0.8"),
		Neighbors: []RouterID{ip("10.0.0.2"), ip("10.0.0.3")},
	}))
	f.Add(MarshalLSUpdate(ip("10.0.0.1"), nil))
	f.Add(MarshalLSUpdate(ip("10.0.0.1"), []*LSA{
		{Type: LSARouter, ID: ip("10.0.0.1"), Adv: ip("10.0.0.1"), Seq: 7, Links: []Link{
			{Type: LinkP2P, ID: ip("10.0.0.2"), Data: uint32(ip("172.16.0.1")), Cost: 10},
			{Type: LinkStub, ID: ip("192.168.1.0"), Data: 24, Cost: 1},
		}},
		{Type: LSANetwork, ID: ip("172.16.1.1"), Adv: ip("10.0.0.1"), Seq: 3, MaskLen: 24,
			Attached: []RouterID{ip("10.0.0.1"), ip("10.0.0.2")}},
	}))
	f.Fuzz(func(t *testing.T, b []byte) {
		d, err := DecodePacket(b)
		if err != nil {
			return
		}
		switch d.Type {
		case PktHello:
			again, err := DecodePacket(MarshalHello(d.Hello))
			if err != nil {
				t.Fatalf("re-marshaled Hello rejected: %v", err)
			}
			if !reflect.DeepEqual(again.Hello, d.Hello) {
				t.Fatalf("Hello round trip: %+v, then %+v", d.Hello, again.Hello)
			}
		case PktLSUpdate:
			again, err := DecodePacket(MarshalLSUpdate(d.Router, d.LSAs))
			if err != nil {
				t.Fatalf("re-marshaled LS Update rejected: %v", err)
			}
			if !reflect.DeepEqual(again.LSAs, d.LSAs) {
				t.Fatalf("LS Update round trip: %v, then %v", d.LSAs, again.LSAs)
			}
		}
	})
}
