package sat

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"strconv"
	"strings"
	"unicode"
)

// WriteDIMACS writes the formula in DIMACS CNF format, including any
// comments stored on the CNF.
func WriteDIMACS(w io.Writer, c *CNF) error {
	bw := bufio.NewWriter(w)
	for _, cm := range c.Comments {
		if _, err := fmt.Fprintf(bw, "c %s\n", cm); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintf(bw, "p cnf %d %d\n", c.NumVars, c.NumClauses()); err != nil {
		return err
	}
	var line []byte
	for i := range c.NumClauses() {
		line = line[:0]
		for _, l := range c.Clause(i) {
			line = append(strconv.AppendInt(line, int64(l), 10), ' ')
		}
		if _, err := bw.Write(append(line, "0\n"...)); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ParseDIMACS reads a DIMACS CNF file. It tolerates comment lines
// anywhere, clauses spanning multiple lines, and a missing final
// terminator on the last clause. Literal counts exceeding the header
// are accepted (NumVars grows); fewer clauses than declared is an
// error, and so is a variable beyond the solver's limit of 2^30-1,
// in the header or in a clause. Literals go straight into the
// formula's slab, so parsing allocates only as the slab grows.
func ParseDIMACS(r io.Reader) (*CNF, error) {
	cnf := &CNF{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<16), 1<<24)
	declaredClauses := -1
	headerSeen := false
	line := 0
	for sc.Scan() {
		line++
		text := bytes.TrimSpace(sc.Bytes())
		if len(text) == 0 {
			continue
		}
		switch text[0] {
		case 'c':
			cnf.Comments = append(cnf.Comments, string(bytes.TrimSpace(text[1:])))
			continue
		case 'p':
			if headerSeen {
				return nil, fmt.Errorf("sat: line %d: duplicate DIMACS header", line)
			}
			fields := strings.Fields(string(text))
			if len(fields) != 4 || fields[1] != "cnf" {
				return nil, fmt.Errorf("sat: line %d: malformed header %q", line, text)
			}
			nv, err1 := strconv.Atoi(fields[2])
			nc, err2 := strconv.Atoi(fields[3])
			if err1 != nil || err2 != nil || nv < 0 || nc < 0 {
				return nil, fmt.Errorf("sat: line %d: malformed header %q", line, text)
			}
			if nv > maxVars {
				return nil, fmt.Errorf("sat: line %d: header declares %d variables, above the limit %d", line, nv, maxVars)
			}
			cnf.NumVars = nv
			declaredClauses = nc
			headerSeen = true
			continue
		}
		if !headerSeen {
			return nil, fmt.Errorf("sat: line %d: clause before header", line)
		}
		for len(text) > 0 {
			var f []byte
			f, text = nextField(text)
			v, err := strconv.Atoi(string(f))
			if err != nil {
				return nil, fmt.Errorf("sat: line %d: bad literal %q", line, f)
			}
			if v == 0 {
				cnf.endClause()
				continue
			}
			if v > maxVars || v < -maxVars {
				return nil, fmt.Errorf("sat: line %d: literal %d beyond the variable limit %d", line, v, maxVars)
			}
			cnf.lits = append(cnf.lits, int32(v))
			cnf.NumVars = max(cnf.NumVars, abs(v))
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if int(cnf.start(len(cnf.ends))) < len(cnf.lits) {
		cnf.endClause() // the last clause lacks its 0 terminator
	}
	if declaredClauses >= 0 && cnf.NumClauses() < declaredClauses {
		return nil, fmt.Errorf("sat: header declares %d clauses, found %d", declaredClauses, cnf.NumClauses())
	}
	return cnf, nil
}

// nextField splits off the first field of text, which must not start
// with a space, where strings.Fields would split it, and returns the
// rest with its leading space dropped.
func nextField(text []byte) (field, rest []byte) {
	i := bytes.IndexFunc(text, unicode.IsSpace)
	if i < 0 {
		return text, nil
	}
	return text[:i], bytes.TrimLeftFunc(text[i:], unicode.IsSpace)
}
