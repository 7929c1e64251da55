// Package gnf is a from-scratch Go reproduction of "Roaming Edge vNFs
// using Glasgow Network Functions" (Cziva, Jouet, Pezaros — SIGCOMM 2016).
//
// GNF is a container-based NFV framework for the network edge: lightweight
// virtual network functions run in containers on commodity stations (home
// routers, access points), and when a mobile client roams between cells
// its NFs migrate with it, giving consistent, location-transparent service.
//
// The implementation lives under internal/ (see README.md for a guided
// tour, DESIGN.md for the system inventory and EXPERIMENTS.md for the
// reproduced evaluation):
//
//   - internal/core     — the System façade assembling a full deployment,
//     including GNFC cloud sites with WAN tunnels, plus the placement
//     invariant auditor
//   - internal/scenario — the deterministic scenario engine replaying the
//     declarative specs under scenarios/ in virtual time
//   - internal/manager  — the placement rule, monitoring, roaming
//     orchestration, station failover, cloud offload/recall
//   - internal/agent    — per-station daemon: containers, veths, steering,
//     offload tunnels and detours
//   - internal/nf/...   — the NF framework and eight built-in functions
//   - internal/netem    — veth pairs, link models, the L2/steering switch
//     (service ports, sticky MACs, VLAN-aware rules)
//   - internal/packet   — Ethernet (802.1Q/QinQ)/ARP/IPv4/UDP/TCP/ICMP +
//     DNS and HTTP request/response codecs
//   - internal/container— the container runtime + central image repository
//   - internal/baseline — the VM-based NFV comparator
//
// The benchmarks in bench_test.go regenerate every experiment (E1–E9 in
// EXPERIMENTS.md); the examples/quickstart is the smallest runnable
// deployment and scenarios/ holds the checked workload corpus; cmd/ holds
// the manager, agent, CLI and demo binaries.
package gnf
