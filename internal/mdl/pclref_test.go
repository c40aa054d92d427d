package mdl

// The PCL parser internal/pcl had before a PCL file was read by Parse — its
// own lexer, and a brace counter capturing each `mdl { ... }` block as text
// for a second parse — kept as the reference the differential tests in
// pcl_test.go compare Parse against.

import (
	"fmt"
	"strconv"
	"strings"
)

// refDaemonDecl is a `daemon <name> { ... }` block.
type refDaemonDecl struct {
	Name    string
	Command string
	Flavor  string
	// MPIImplementation is the §4.1 attribute naming the MPI implementation
	// the daemon should start processes with ("lam", "mpich", "mpich2").
	MPIImplementation string
}

// refProcessDecl is a `process <name> { ... }` block: an application to run.
type refProcessDecl struct {
	Name    string
	Command string // an mpirun command line, parsed by internal/cluster
	Daemon  string // the daemon definition to start it with
}

// refConfig is a parsed PCL file.
type refConfig struct {
	Daemons   []*refDaemonDecl
	Processes []*refProcessDecl
	// Tunables are the tunable constants, e.g. PC_CPUThreshold.
	Tunables map[string]float64
	// tunableLines is the source line each tunable was set on, for errors
	// about its value.
	tunableLines map[string]int
	// MDL is the concatenated embedded metric-definition source.
	MDL string
}

// Daemon returns the named daemon declaration, or nil.
func (c *refConfig) Daemon(name string) *refDaemonDecl {
	for _, d := range c.Daemons {
		if d.Name == name {
			return d
		}
	}
	return nil
}

// Tunable returns a tunable constant with a default.
func (c *refConfig) Tunable(name string, def float64) float64 {
	if v, ok := c.Tunables[name]; ok {
		return v
	}
	return def
}

// TunableLine returns the line of the PCL source the tunable was set on (0 if
// it was not).
func (c *refConfig) TunableLine(name string) int { return c.tunableLines[name] }

// refParsePCL parses PCL source.
func refParsePCL(src string) (*refConfig, error) {
	cfg := &refConfig{Tunables: map[string]float64{}, tunableLines: map[string]int{}}
	p := &refParser{src: src, line: 1}
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

type refParser struct {
	src  string
	pos  int
	line int
}

func (p *refParser) done() bool { return p.pos >= len(p.src) }

func (p *refParser) skipSpace() {
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

func (p *refParser) ident() (string, error) {
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

func (p *refParser) expect(c byte) error {
	p.skipSpace()
	if p.done() || p.src[p.pos] != c {
		return fmt.Errorf("pcl:%d: expected %q", p.line, string(c))
	}
	p.pos++
	return nil
}

func (p *refParser) str() (string, error) {
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

func (p *refParser) number() (float64, error) {
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

func (p *refParser) daemonBlock() (*refDaemonDecl, error) {
	name, err := p.ident()
	if err != nil {
		return nil, err
	}
	if err := p.expect('{'); err != nil {
		return nil, err
	}
	d := &refDaemonDecl{Name: name}
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

func (p *refParser) processBlock() (*refProcessDecl, error) {
	name, err := p.ident()
	if err != nil {
		return nil, err
	}
	if err := p.expect('{'); err != nil {
		return nil, err
	}
	pr := &refProcessDecl{Name: name}
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

func (p *refParser) tunableBlock(cfg *refConfig) error {
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
func (p *refParser) rawBlock() (string, error) {
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
