// Package pcl implements the Paradyn Configuration Language: the config
// files users customize the tool with (§4). A PCL file declares daemons
// (§4.1 adds the optional mpi_implementation attribute so the tool can start
// MPI jobs on non-shared filesystems without the generated-script
// intermediary), processes to run, tunable constants (the Performance
// Consultant thresholds §5.1.6 adjusts), and embedded MDL blocks for new
// metrics.
//
// Grammar (a faithful subset):
//
//	daemon <name> {
//	    command "<path>";
//	    flavor <id>;
//	    mpi_implementation "<lam|mpich|mpich2>";   // the paper's addition
//	}
//	process <name> {
//	    command "<mpirun command line>";
//	    daemon <daemon-name>;
//	}
//	tunable_constant { "<name>" <number>; ... }
//	mdl { ...MDL source... }
package pcl

import (
	"fmt"
	"strconv"
	"strings"
)

// DaemonDecl is a `daemon <name> { ... }` block.
type DaemonDecl struct {
	Name    string
	Command string
	Flavor  string
	// MPIImplementation is the §4.1 attribute naming the MPI implementation
	// the daemon should start processes with ("lam", "mpich", "mpich2").
	MPIImplementation string
}

// ProcessDecl is a `process <name> { ... }` block: an application to run.
type ProcessDecl struct {
	Name    string
	Command string // an mpirun command line, parsed by internal/cluster
	Daemon  string // the daemon definition to start it with
}

// Config is a parsed PCL file.
type Config struct {
	Daemons   []*DaemonDecl
	Processes []*ProcessDecl
	// Tunables are the tunable constants, e.g. PC_CPUThreshold.
	Tunables map[string]float64
	// tunableLines is the source line each tunable was set on, for errors
	// about its value.
	tunableLines map[string]int
	// MDL is the concatenated embedded metric-definition source.
	MDL string
}

// Daemon returns the named daemon declaration, or nil.
func (c *Config) Daemon(name string) *DaemonDecl {
	for _, d := range c.Daemons {
		if d.Name == name {
			return d
		}
	}
	return nil
}

// Tunable returns a tunable constant with a default.
func (c *Config) Tunable(name string, def float64) float64 {
	if v, ok := c.Tunables[name]; ok {
		return v
	}
	return def
}

// TunableLine returns the line of the PCL source the tunable was set on (0 if
// it was not).
func (c *Config) TunableLine(name string) int { return c.tunableLines[name] }

// Parse parses PCL source.
func Parse(src string) (*Config, error) {
	cfg := &Config{Tunables: map[string]float64{}, tunableLines: map[string]int{}}
	p := &parser{src: src, line: 1}
	for {
		p.skipSpace()
		if p.done() {
			return cfg, nil
		}
		word, err := p.ident()
		if err != nil {
			return nil, err
		}
		switch word {
		case "daemon":
			d, err := p.daemonBlock()
			if err != nil {
				return nil, err
			}
			if cfg.Daemon(d.Name) != nil {
				return nil, fmt.Errorf("pcl:%d: duplicate daemon %q", p.line, d.Name)
			}
			cfg.Daemons = append(cfg.Daemons, d)
		case "process":
			pr, err := p.processBlock()
			if err != nil {
				return nil, err
			}
			cfg.Processes = append(cfg.Processes, pr)
		case "tunable_constant":
			if err := p.tunableBlock(cfg); err != nil {
				return nil, err
			}
		case "mdl":
			body, err := p.rawBlock()
			if err != nil {
				return nil, err
			}
			cfg.MDL += body + "\n"
		default:
			return nil, fmt.Errorf("pcl:%d: unknown declaration %q", p.line, word)
		}
	}
}

type parser struct {
	src  string
	pos  int
	line int
}

func (p *parser) done() bool { return p.pos >= len(p.src) }

func (p *parser) skipSpace() {
	for p.pos < len(p.src) {
		c := p.src[p.pos]
		switch {
		case c == '\n':
			p.line++
			p.pos++
		case c == ' ' || c == '\t' || c == '\r':
			p.pos++
		case c == '/' && p.pos+1 < len(p.src) && p.src[p.pos+1] == '/':
			for p.pos < len(p.src) && p.src[p.pos] != '\n' {
				p.pos++
			}
		default:
			return
		}
	}
}

func (p *parser) ident() (string, error) {
	p.skipSpace()
	start := p.pos
	for p.pos < len(p.src) {
		c := p.src[p.pos]
		if c == '_' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9') {
			p.pos++
		} else {
			break
		}
	}
	if p.pos == start {
		return "", fmt.Errorf("pcl:%d: expected identifier", p.line)
	}
	return p.src[start:p.pos], nil
}

func (p *parser) expect(c byte) error {
	p.skipSpace()
	if p.done() || p.src[p.pos] != c {
		return fmt.Errorf("pcl:%d: expected %q", p.line, string(c))
	}
	p.pos++
	return nil
}

func (p *parser) str() (string, error) {
	p.skipSpace()
	if p.done() || p.src[p.pos] != '"' {
		return "", fmt.Errorf("pcl:%d: expected string", p.line)
	}
	p.pos++
	start := p.pos
	for p.pos < len(p.src) && p.src[p.pos] != '"' {
		if p.src[p.pos] == '\n' {
			return "", fmt.Errorf("pcl:%d: unterminated string", p.line)
		}
		p.pos++
	}
	if p.done() {
		return "", fmt.Errorf("pcl:%d: unterminated string", p.line)
	}
	s := p.src[start:p.pos]
	p.pos++
	return s, nil
}

func (p *parser) number() (float64, error) {
	p.skipSpace()
	start := p.pos
	for p.pos < len(p.src) {
		c := p.src[p.pos]
		if (c >= '0' && c <= '9') || c == '.' || c == '-' || c == '+' || c == 'e' {
			p.pos++
		} else {
			break
		}
	}
	v, err := strconv.ParseFloat(p.src[start:p.pos], 64)
	if err != nil {
		return 0, fmt.Errorf("pcl:%d: bad number %q", p.line, p.src[start:p.pos])
	}
	return v, nil
}

func (p *parser) daemonBlock() (*DaemonDecl, error) {
	name, err := p.ident()
	if err != nil {
		return nil, err
	}
	if err := p.expect('{'); err != nil {
		return nil, err
	}
	d := &DaemonDecl{Name: name}
	for {
		p.skipSpace()
		if !p.done() && p.src[p.pos] == '}' {
			p.pos++
			return d, nil
		}
		attr, err := p.ident()
		if err != nil {
			return nil, err
		}
		switch attr {
		case "command":
			if d.Command, err = p.str(); err != nil {
				return nil, err
			}
		case "flavor":
			if d.Flavor, err = p.ident(); err != nil {
				return nil, err
			}
		case "mpi_implementation":
			v, err := p.str()
			if err != nil {
				return nil, err
			}
			switch strings.ToLower(v) {
			case "lam", "mpich", "mpich2", "reference":
				d.MPIImplementation = strings.ToLower(v)
			default:
				return nil, fmt.Errorf("pcl:%d: unknown mpi_implementation %q", p.line, v)
			}
		default:
			return nil, fmt.Errorf("pcl:%d: unknown daemon attribute %q", p.line, attr)
		}
		if err := p.expect(';'); err != nil {
			return nil, err
		}
	}
}

func (p *parser) processBlock() (*ProcessDecl, error) {
	name, err := p.ident()
	if err != nil {
		return nil, err
	}
	if err := p.expect('{'); err != nil {
		return nil, err
	}
	pr := &ProcessDecl{Name: name}
	for {
		p.skipSpace()
		if !p.done() && p.src[p.pos] == '}' {
			p.pos++
			return pr, nil
		}
		attr, err := p.ident()
		if err != nil {
			return nil, err
		}
		switch attr {
		case "command":
			if pr.Command, err = p.str(); err != nil {
				return nil, err
			}
		case "daemon":
			if pr.Daemon, err = p.ident(); err != nil {
				return nil, err
			}
		default:
			return nil, fmt.Errorf("pcl:%d: unknown process attribute %q", p.line, attr)
		}
		if err := p.expect(';'); err != nil {
			return nil, err
		}
	}
}

func (p *parser) tunableBlock(cfg *Config) error {
	if err := p.expect('{'); err != nil {
		return err
	}
	for {
		p.skipSpace()
		if !p.done() && p.src[p.pos] == '}' {
			p.pos++
			return nil
		}
		line := p.line
		name, err := p.str()
		if err != nil {
			return err
		}
		v, err := p.number()
		if err != nil {
			return err
		}
		cfg.Tunables[name] = v
		cfg.tunableLines[name] = line
		if err := p.expect(';'); err != nil {
			return err
		}
	}
}

// rawBlock captures a brace-balanced { ... } body verbatim (for embedded
// MDL).
func (p *parser) rawBlock() (string, error) {
	if err := p.expect('{'); err != nil {
		return "", err
	}
	start := p.pos
	depth := 1
	for p.pos < len(p.src) {
		switch p.src[p.pos] {
		case '{':
			depth++
		case '}':
			depth--
			if depth == 0 {
				body := p.src[start:p.pos]
				p.pos++
				return body, nil
			}
		case '\n':
			p.line++
		}
		p.pos++
	}
	return "", fmt.Errorf("pcl:%d: unterminated block", p.line)
}
