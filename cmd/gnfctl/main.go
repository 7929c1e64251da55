// Command gnfctl is the operator CLI for a running gnf-manager, speaking
// the UI's REST API — plus a self-contained scenario runner.
//
//	gnfctl -api http://127.0.0.1:8080 overview
//	gnfctl -api ... stations | notifications | migrations | hotspots
//	gnfctl -api ... attach  <client> <chain> <kind[:k=v,k=v]> [more fns...]
//	gnfctl -api ... detach  <client> <chain>
//	gnfctl -api ... migrate <client> <chain> <station>
//	gnfctl run-scenario <file.json>    # no manager needed: runs in-process
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"strings"

	"gnf/internal/agent"
	"gnf/internal/manager"
	"gnf/internal/nf"
	"gnf/internal/scenario"
	"gnf/internal/ui"
)

func usage() {
	fmt.Fprintf(os.Stderr, `usage: gnfctl [-api URL] <command> [args]

commands:
  overview                         cluster summary
  stations                         per-station health
  notifications                    NF alerts collected by the manager
  migrations                       completed chain migrations
  attach <client> <chain> <fn>...  attach an NF chain; fn = kind[@affinity][:k=v,k=v]
                                   (affinity near-client|aggregate|cloud-ok
                                   splits the chain into per-station segments)
  detach <client> <chain>          remove a chain
  migrate <client> <chain> <to>    move a chain to another station
  offload <client> <site>          move all of a client's chains to a cloud site
  recall <client>                  return an offloaded client's chains to the edge
  failovers                        failed stations and recovery reports
  placement                        per-station capacity view
  pools                            per-station shared NF instance tables
                                   (kind, config hash, refcount, replicas,
                                   load) and autoscaler decisions
  segments                         per-segment chain placement: affinity,
                                   NFs, current station, planned station
  apply -f <spec.json>             install a desired-state spec and
                                   reconcile until the fleet converges
  diff                             pending actions between desired and
                                   actual state (empty when converged)
  get spec                         installed desired-state spec + status
  trace [id]                       list stored traces, or render one trace's
                                   span tree with per-span durations
  events [-follow] [-type t,...]   print the manager's event journal; -follow
                                   tails it live
  top [-follow]                    per-station resource table (CPU, memory,
                                   NFs, frames); -follow redraws like top(1)
  run-scenario <file.json>         execute a declarative scenario in-process
                                   (virtual time; prints the result, exits
                                   non-zero when expectations fail)
`)
	os.Exit(2)
}

func main() {
	api := flag.String("api", "http://127.0.0.1:8080", "manager UI base URL")
	flag.Usage = usage
	flag.Parse()
	args := flag.Args()
	if len(args) == 0 {
		usage()
	}
	var err error
	switch args[0] {
	case "overview":
		err = getAndPrint(*api + "/api/overview")
	case "stations":
		err = getAndPrint(*api + "/api/stations")
	case "notifications":
		err = getAndPrint(*api + "/api/notifications")
	case "migrations":
		err = getAndPrint(*api + "/api/migrations")
	case "attach":
		if len(args) < 4 {
			usage()
		}
		err = attach(*api, args[1], args[2], args[3:])
	case "detach":
		if len(args) != 3 {
			usage()
		}
		err = post(*api+"/api/chains/detach", ui.DetachRequest{Client: args[1], Chain: args[2]})
	case "migrate":
		if len(args) != 4 {
			usage()
		}
		err = post(*api+"/api/chains/migrate", ui.MigrateRequest{Client: args[1], Chain: args[2], To: args[3]})
	case "offload":
		if len(args) != 3 {
			usage()
		}
		err = post(*api+"/api/clients/offload", ui.OffloadRequest{Client: args[1], Site: args[2]})
	case "recall":
		if len(args) != 2 {
			usage()
		}
		err = post(*api+"/api/clients/recall", ui.RecallRequest{Client: args[1]})
	case "failovers":
		err = getAndPrint(*api + "/api/failovers")
	case "placement":
		err = getAndPrint(*api + "/api/placement")
	case "pools":
		err = getAndPrint(*api + "/api/pools")
	case "segments":
		err = getAndPrint(*api + "/api/segments")
	case "apply":
		if len(args) != 3 || args[1] != "-f" {
			usage()
		}
		err = apply(*api, args[2])
	case "diff":
		err = getAndPrint(*api + "/api/diff")
	case "get":
		if len(args) != 2 || args[1] != "spec" {
			usage()
		}
		err = getAndPrint(*api + "/api/spec")
	case "trace":
		err = cmdTrace(*api, args[1:])
	case "events":
		err = cmdEvents(*api, args[1:])
	case "top":
		err = cmdTop(*api, args[1:])
	case "run-scenario":
		if len(args) != 2 {
			usage()
		}
		err = runScenario(args[1])
	default:
		usage()
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "gnfctl:", err)
		os.Exit(1)
	}
}

// runScenario executes one scenario file against a fresh in-process
// deployment on the virtual clock and prints the result.
func runScenario(path string) error {
	return scenario.Execute(path, os.Stdout)
}

// parseFn turns "firewall:policy=drop,rules=accept any udp" into an
// NFSpec. An optional "@affinity" suffix on the kind ("nat@aggregate")
// pins the function's segment placement class.
func parseFn(idx int, s string) (agent.NFSpec, error) {
	kind, rest, hasParams := strings.Cut(s, ":")
	kind, affinity, _ := strings.Cut(kind, "@")
	if kind == "" {
		return agent.NFSpec{}, fmt.Errorf("empty NF kind in %q", s)
	}
	spec := agent.NFSpec{Kind: kind, Name: fmt.Sprintf("%s-%d", kind, idx), Params: nf.Params{}, Affinity: affinity}
	if hasParams {
		for _, kv := range strings.Split(rest, ",") {
			k, v, ok := strings.Cut(kv, "=")
			if !ok {
				return agent.NFSpec{}, fmt.Errorf("bad parameter %q (want k=v)", kv)
			}
			spec.Params[k] = v
		}
	}
	return spec, nil
}

func attach(api, client, chain string, fnArgs []string) error {
	var fns []agent.NFSpec
	for i, s := range fnArgs {
		fn, err := parseFn(i, s)
		if err != nil {
			return err
		}
		fns = append(fns, fn)
	}
	return post(api+"/api/chains/attach", ui.AttachRequest{
		Client: client,
		Chain:  manager.ChainSpec{Name: chain, Functions: fns},
	})
}

// applyPasses bounds the reconcile passes one apply will drive; backoff
// on a persistently failing action keeps later passes cheap, but we still
// surface non-convergence to the operator instead of spinning forever.
const applyPasses = 20

// apply installs the spec file as desired state and drives reconcile
// passes until the reconciler reports convergence.
func apply(api, path string) error {
	raw, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := put(api+"/api/spec", raw); err != nil {
		return err
	}
	for i := 0; i < applyPasses; i++ {
		var res struct {
			Converged bool `json:"converged"`
			Failed    int  `json:"failed"`
			Deferred  int  `json:"deferred"`
		}
		if err := postInto(api+"/api/reconcile", map[string]any{}, &res); err != nil {
			return err
		}
		if res.Converged {
			fmt.Printf("converged after %d reconcile pass(es)\n", i+1)
			return nil
		}
	}
	return fmt.Errorf("not converged after %d reconcile passes; run `gnfctl diff` to inspect the gap", applyPasses)
}

func getAndPrint(url string) error {
	resp, err := http.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	return printBody(resp)
}

func post(url string, body any) error {
	b, err := json.Marshal(body)
	if err != nil {
		return err
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(b))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	return printBody(resp)
}

// put issues a PUT with a raw JSON body and prints the response.
func put(url string, body []byte) error {
	req, err := http.NewRequest(http.MethodPut, url, bytes.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	return printBody(resp)
}

// postInto posts a JSON body and decodes the 200 response into out.
func postInto(url string, body, out any) error {
	b, err := json.Marshal(body)
	if err != nil {
		return err
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(b))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%s: %s", resp.Status, strings.TrimSpace(string(raw)))
	}
	return json.Unmarshal(raw, out)
}

func printBody(resp *http.Response) error {
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%s: %s", resp.Status, strings.TrimSpace(string(raw)))
	}
	var pretty bytes.Buffer
	if json.Indent(&pretty, raw, "", "  ") == nil {
		fmt.Println(pretty.String())
	} else {
		fmt.Println(strings.TrimSpace(string(raw)))
	}
	return nil
}
