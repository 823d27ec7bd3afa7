package tvqclient

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"strconv"
	"unicode"
	"unicode/utf16"
	"unicode/utf8"

	"tvq"
	"tvq/internal/objset"
)

// The client reads two JSON shapes on its hot paths: a delivery line of
// a match stream and the ack of an ingest batch. Both are decoded by the
// scanner below instead of encoding/json. It accepts exactly the inputs
// encoding/json accepts into the equivalent structs and yields the same
// values (FuzzDecodeWire holds it to that): keys match case-insensitively
// after unescaping, unknown keys of any type are skipped, null leaves a
// number as it was and clears a list, a repeated key decodes again over
// the earlier value, and a number that is not an integer of the field's
// range is an error.

// decodeDelivery decodes one delivery line, the tvq.JSONLSink line
// format the daemon streams.
func decodeDelivery(line []byte) (tvq.Delivery, error) {
	var (
		feed, fid, query int64
		objects          []objset.ID
		frames           []tvq.FrameID
	)
	s := scanner{b: line}
	for k, ok := s.key(); ok; k, ok = s.key() {
		switch {
		case k.is("feed"):
			s.err = s.integer(&feed, math.MaxInt64)
		case k.is("fid"):
			s.err = s.integer(&fid, math.MaxInt64)
		case k.is("query"):
			s.err = s.integer(&query, math.MaxInt)
		case k.is("objects"):
			objects, s.err = integers(&s, objects, math.MaxUint32)
		case k.is("frames"):
			frames, s.err = integers(&s, frames, math.MaxInt64)
		default:
			s.err = s.skip()
		}
	}
	if err := s.end(); err != nil {
		return tvq.Delivery{}, fmt.Errorf("tvqclient: decode delivery %q: %w", bytes.TrimSpace(line), err)
	}
	return tvq.Delivery{
		Feed: tvq.FeedID(feed),
		FID:  fid,
		Match: tvq.Match{
			QueryID: int(query),
			Objects: objectSet(objects),
			Frames:  frames,
		},
	}, nil
}

// objectSet builds the set of ids, taking ownership of the slice when
// the ids are strictly increasing, as the daemon writes them.
func objectSet(ids []objset.ID) objset.Set {
	for i := 1; i < len(ids); i++ {
		if ids[i-1] >= ids[i] {
			return objset.New(ids...)
		}
	}
	return objset.Compact(objset.FromSorted(ids))
}

// batchResult is the daemon's answer to one accepted ingest request.
type batchResult struct {
	Accepted int
	Matches  int
	NextFID  int64
}

// decodeAck decodes an ingest ack; keys other than accepted, matches
// and next_fid (a disordered session's late and reorder_depth) are
// skipped.
func decodeAck(body []byte) (batchResult, error) {
	var accepted, matches, next int64
	s := scanner{b: body}
	for k, ok := s.key(); ok; k, ok = s.key() {
		switch {
		case k.is("accepted"):
			s.err = s.integer(&accepted, math.MaxInt)
		case k.is("matches"):
			s.err = s.integer(&matches, math.MaxInt)
		case k.is("next_fid"):
			s.err = s.integer(&next, math.MaxInt64)
		default:
			s.err = s.skip()
		}
	}
	if err := s.end(); err != nil {
		return batchResult{}, err
	}
	return batchResult{Accepted: int(accepted), Matches: int(matches), NextFID: next}, nil
}

// maxDepth is encoding/json's nesting limit: the top-level object is
// depth 1, and a value nested deeper than this is an error.
const maxDepth = 10000

// scanner reads one JSON text from b, which must be an object (or null,
// which has no keys) with nothing but whitespace around it. The caller
// loops over key, consumes each key's value with a reader that leaves
// its error in err, and then calls end.
type scanner struct {
	b     []byte
	i     int
	depth int
	err   error
	done  bool // the top-level value has ended
}

// key is an object key as it appears between its quotes.
type key struct {
	raw     []byte
	escaped bool
}

// key reads up to the next key of the top-level object and its ':'.
// It returns false at the object's end or after an error.
func (s *scanner) key() (key, bool) {
	if s.err != nil || s.done {
		return key{}, false
	}
	s.space()
	switch {
	case s.depth == 0: // the top-level value starts
		if s.null() {
			s.done = true
			return key{}, false
		}
		if s.peek() != '{' {
			s.err = s.fail("a value that is not an object")
			return key{}, false
		}
		if s.err = s.enter(); s.err != nil {
			return key{}, false
		}
		s.i++
		s.space()
		if s.peek() == '}' {
			s.i++
			s.done = true
			return key{}, false
		}
	case s.peek() == ',':
		s.i++
		s.space()
	case s.peek() == '}':
		s.i++
		s.done = true
		return key{}, false
	default:
		s.err = s.fail("want ',' or '}'")
		return key{}, false
	}
	var k key
	if k, s.err = s.member(); s.err != nil {
		return key{}, false
	}
	return k, true
}

// end reports the first error, or trailing data after the object.
func (s *scanner) end() error {
	if s.err != nil {
		return s.err
	}
	s.space()
	if s.i < len(s.b) {
		return s.fail("trailing data")
	}
	return nil
}

// member reads a key, its ':' and the whitespace before its value.
func (s *scanner) member() (key, error) {
	if s.peek() != '"' {
		return key{}, s.fail("want a key")
	}
	k, err := s.str()
	if err != nil {
		return key{}, err
	}
	s.space()
	if s.peek() != ':' {
		return key{}, s.fail("want ':'")
	}
	s.i++
	s.space()
	return k, nil
}

// skip reads one value of any type.
func (s *scanner) skip() error {
	switch c := s.peek(); {
	case c == '{' || c == '[':
		if err := s.enter(); err != nil {
			return err
		}
		s.i++
		s.space()
		closer := c + 2 // '}' or ']'
		if s.peek() == closer {
			s.i++
			s.depth--
			return nil
		}
		for {
			if c == '{' {
				if _, err := s.member(); err != nil {
					return err
				}
			}
			if err := s.skip(); err != nil {
				return err
			}
			s.space()
			switch s.peek() {
			case ',':
				s.i++
				s.space()
			case closer:
				s.i++
				s.depth--
				return nil
			default:
				return s.fail("want ',' or " + string(closer))
			}
		}
	case c == '"':
		_, err := s.str()
		return err
	case c == '-' || '0' <= c && c <= '9':
		_, _, _, err := s.number()
		return err
	case s.literal("true"), s.literal("false"), s.null():
		return nil
	}
	return s.fail("want a value")
}

// integer reads a number or null into *v. Null leaves *v as it was; a
// number must be an integer in [-max-1, max].
func (s *scanner) integer(v *int64, max uint64) error {
	if s.null() {
		return nil
	}
	n, err := s.intIn(max, true)
	if err != nil {
		return err
	}
	*v = n
	return nil
}

// integers reads null (which yields nil) or an array of integers in
// [0, max] — or [-max-1, max] when T is signed — into dst, which holds
// the value of an earlier occurrence of the same key. Like
// encoding/json, an array of n elements overwrites dst's backing array
// from the start, so a null element keeps the earlier array's value at
// its index (or zero), and an empty array is a new empty slice.
func integers[T int64 | uint32](s *scanner, dst []T, max uint64) ([]T, error) {
	if s.null() {
		return nil, nil
	}
	if s.peek() != '[' {
		return dst, s.fail("want an array")
	}
	if err := s.enter(); err != nil {
		return dst, err
	}
	s.i++
	// Count before allocating. Between the brackets of a valid array of
	// numbers there is no ']' and one ',' per separator; if the count is
	// off, the array holds something else, which fails below.
	end := bytes.IndexByte(s.b[s.i:], ']')
	if end < 0 {
		return dst, s.fail("unterminated array")
	}
	n := 0
	if inner := s.b[s.i : s.i+end]; len(bytes.TrimLeft(inner, " \t\r\n")) > 0 {
		n = 1 + bytes.Count(inner, []byte{','})
	}
	switch {
	case n == 0:
		dst = []T{}
	case dst == nil:
		dst = make([]T, n)
	case n > cap(dst):
		dst = append(dst[:cap(dst)], make([]T, n-cap(dst))...)
	default:
		dst = dst[:n]
	}
	signed := ^T(0) < 0
	s.space()
	for k := 0; ; k++ {
		if k == 0 && s.peek() == ']' {
			break
		}
		if k == n {
			return dst, s.fail("malformed array")
		}
		if !s.null() {
			v, err := s.intIn(max, signed)
			if err != nil {
				return dst, err
			}
			dst[k] = T(v)
		}
		s.space()
		if s.peek() == ']' {
			if k+1 != n {
				return dst, s.fail("malformed array")
			}
			break
		}
		if s.peek() != ',' {
			return dst, s.fail("want ',' or ']'")
		}
		s.i++
		s.space()
	}
	s.i++ // ']'
	s.depth--
	return dst, nil
}

// intIn reads a number that must be an integer in [0, max], or in
// [-max-1, max] when signed (encoding/json's range check: ParseUint
// refuses any sign, "-0" included).
func (s *scanner) intIn(max uint64, signed bool) (int64, error) {
	neg, mag, integral, err := s.number()
	switch {
	case err != nil:
		return 0, err
	case !integral, neg && !signed, !neg && mag > max, neg && mag > max+1:
		return 0, errors.New("not an integer in the field's range")
	case neg:
		return -int64(mag), nil
	}
	return int64(mag), nil
}

// number reads a JSON number. For an integer literal it returns its
// sign and magnitude; integral is false when the literal has a fraction
// or an exponent or its magnitude overflows uint64.
func (s *scanner) number() (neg bool, mag uint64, integral bool, err error) {
	if s.peek() == '-' {
		neg = true
		s.i++
	}
	integral = true
	switch c := s.peek(); {
	case c == '0':
		s.i++
	case '1' <= c && c <= '9':
		for ; s.i < len(s.b) && '0' <= s.b[s.i] && s.b[s.i] <= '9'; s.i++ {
			d := uint64(s.b[s.i] - '0')
			if mag > (math.MaxUint64-d)/10 {
				integral = false
			}
			mag = mag*10 + d
		}
	default:
		return false, 0, false, s.fail("want a digit")
	}
	if s.peek() == '.' {
		s.i++
		if !s.digits() {
			return false, 0, false, s.fail("want a digit")
		}
		integral = false
	}
	if c := s.peek(); c == 'e' || c == 'E' {
		s.i++
		if c := s.peek(); c == '+' || c == '-' {
			s.i++
		}
		if !s.digits() {
			return false, 0, false, s.fail("want a digit")
		}
		integral = false
	}
	return neg, mag, integral, nil
}

// digits reads one or more decimal digits.
func (s *scanner) digits() bool {
	from := s.i
	for s.i < len(s.b) && '0' <= s.b[s.i] && s.b[s.i] <= '9' {
		s.i++
	}
	return s.i > from
}

// str reads a string and returns what is between its quotes.
func (s *scanner) str() (key, error) {
	s.i++ // '"'
	from := s.i
	escaped := false
	for s.i < len(s.b) {
		switch c := s.b[s.i]; {
		case c == '"':
			s.i++
			return key{raw: s.b[from : s.i-1], escaped: escaped}, nil
		case c == '\\':
			escaped = true
			s.i++
			switch s.peek() {
			case '"', '\\', '/', 'b', 'f', 'n', 'r', 't':
				s.i++
			case 'u':
				if s.i+5 > len(s.b) || hex4(s.b[s.i+1:s.i+5]) < 0 {
					return key{}, s.fail("bad \\u escape")
				}
				s.i += 5
			default:
				return key{}, s.fail("bad escape")
			}
		case c < 0x20:
			return key{}, s.fail("control character in string")
		default:
			s.i++
		}
	}
	return key{}, s.fail("unterminated string")
}

// hex4 decodes four hex digits, or returns -1.
func hex4(b []byte) rune {
	var r rune
	for _, c := range b[:4] {
		switch {
		case '0' <= c && c <= '9':
			c -= '0'
		case 'a' <= c && c <= 'f':
			c -= 'a' - 10
		case 'A' <= c && c <= 'F':
			c -= 'A' - 10
		default:
			return -1
		}
		r = r<<4 | rune(c)
	}
	return r
}

// is reports whether the key names field (lower-case ASCII) the way
// encoding/json matches a struct field: the unescaped key equals the
// name after both are case-folded, ASCII letters to upper case and
// other runes to the smallest rune of their fold orbit.
func (k key) is(field string) bool {
	j := 0
	for i := 0; i < len(k.raw); j++ {
		r, n := k.rune(i)
		i += n
		if r < utf8.RuneSelf {
			if 'a' <= r && r <= 'z' {
				r -= 'a' - 'A'
			}
		} else {
			r = foldRune(r)
		}
		if j == len(field) {
			return false
		}
		c := field[j]
		if 'a' <= c && c <= 'z' {
			c -= 'a' - 'A'
		}
		if r != rune(c) {
			return false
		}
	}
	return j == len(field)
}

// rune returns the rune at raw[i:] as encoding/json unquotes it, and how
// many bytes it takes: escapes decoded, a surrogate pair joined, a lone
// surrogate or invalid UTF-8 read as U+FFFD.
func (k key) rune(i int) (rune, int) {
	c := k.raw[i]
	switch {
	case c < utf8.RuneSelf && (c != '\\' || !k.escaped):
		return rune(c), 1
	case c >= utf8.RuneSelf:
		return utf8.DecodeRune(k.raw[i:])
	}
	switch e := k.raw[i+1]; e {
	case 'u':
		r := hex4(k.raw[i+2:])
		if !utf16.IsSurrogate(r) {
			return r, 6
		}
		if rest := k.raw[i+6:]; len(rest) >= 6 && rest[0] == '\\' && rest[1] == 'u' {
			if d := utf16.DecodeRune(r, hex4(rest[2:])); d != unicode.ReplacementChar {
				return d, 12
			}
		}
		return unicode.ReplacementChar, 6
	case 'b':
		return '\b', 2
	case 'f':
		return '\f', 2
	case 'n':
		return '\n', 2
	case 'r':
		return '\r', 2
	case 't':
		return '\t', 2
	default: // '"', '\\', '/'
		return rune(e), 2
	}
}

// foldRune returns the smallest rune of r's simple fold orbit.
func foldRune(r rune) rune {
	for {
		r2 := unicode.SimpleFold(r)
		if r2 <= r {
			return r2
		}
		r = r2
	}
}

// enter opens a nested object or array.
func (s *scanner) enter() error {
	s.depth++
	if s.depth > maxDepth {
		return s.fail("nested too deeply")
	}
	return nil
}

// space skips JSON whitespace.
func (s *scanner) space() {
	for s.i < len(s.b) {
		switch s.b[s.i] {
		case ' ', '\t', '\r', '\n':
			s.i++
		default:
			return
		}
	}
}

// peek returns the byte at s.i, or 0 at the end.
func (s *scanner) peek() byte {
	if s.i < len(s.b) {
		return s.b[s.i]
	}
	return 0
}

// null reads the literal null if it is next.
func (s *scanner) null() bool { return s.literal("null") }

// literal reads lit if it is next.
func (s *scanner) literal(lit string) bool {
	if len(s.b)-s.i >= len(lit) && string(s.b[s.i:s.i+len(lit)]) == lit {
		s.i += len(lit)
		return true
	}
	return false
}

func (s *scanner) fail(what string) error {
	return errors.New(what + " at offset " + strconv.Itoa(s.i))
}
