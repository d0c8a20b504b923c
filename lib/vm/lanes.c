/* Native lane loops of the simulator's translated engine (machine.ml).

   Each function is the lane loop of one translated closure, statement
   for statement: the same lane order, and within a lane the same reads
   before the same write.  A source may alias the destination (Vrmpy
   with vd = vs, a Vmpy/Vmpyb/Vmul source inside its destination pair, a
   Vpack destination inside its source pair, a Valu, Vscale, Vscalev or
   Vlut destination equal to a source, a Vshuff with pd = ps), and only
   that order gives the reference interpreter's bytes, so no pointer is
   restrict.  gcc versions the loops on a runtime overlap check and
   vectorizes the non-overlapping case.

   Registers are the 128-byte [bytes] windows of the OCaml machine.
   Lane words are little-endian like the simulated DSP; machine.ml
   refuses a big-endian host.  Integer arguments arrive tagged and are
   read with Long_val, so one function serves native code and bytecode.
   No lane function allocates, raises or releases the runtime lock,
   which is what their [@@noalloc] externals promise. */

#include <stdint.h>
#include <string.h>
#include <caml/mlvalues.h>
#include <caml/alloc.h>

/* On x86-64 every lane function is compiled twice, for the baseline ISA
   and for AVX2, and the dynamic loader binds each symbol to the clone
   the running CPU supports (an ifunc, which glibc's loader resolves).
   Elsewhere there is one build. */
#if defined(__x86_64__) && defined(__ELF__) && defined(__GNUC__) && defined(__GLIBC__)
#define CLONED 1
#define LANES __attribute__((target_clones("avx2", "default")))
#else
#define CLONED 0
#define LANES
#endif

/* The clone the loader picked: gcc's resolver takes the AVX2 clone
   exactly when __builtin_cpu_supports("avx2") holds. */
value gcd2_vm_lanes_clone(value unit)
{
  (void)unit;
#if CLONED
  __builtin_cpu_init();
  if (__builtin_cpu_supports("avx2"))
    return caml_copy_string("avx2");
#endif
  return caml_copy_string("default");
}

static inline int32_t ld16(const unsigned char *p)
{
  int16_t v;
  memcpy(&v, p, 2);
  return v;
}

/* Stores the low 16 bits, as machine.ml's [p16] does. */
static inline void st16(unsigned char *p, int32_t v)
{
  uint16_t h = (uint16_t)v;
  memcpy(p, &h, 2);
}

static inline int32_t ld32(const unsigned char *p)
{
  int32_t v;
  memcpy(&v, p, 4);
  return v;
}

/* Stores the low 32 bits, so storing an unwrapped sum is [Sat.wrap32]. */
static inline void st32(unsigned char *p, uint32_t v)
{
  memcpy(p, &v, 4);
}

static inline int32_t ld8(const unsigned char *p)
{
  return (int8_t)*p;
}

static inline void st8(unsigned char *p, int32_t v)
{
  *p = (unsigned char)v;
}

static inline int32_t clamp8(int32_t v)
{
  return v < -128 ? -128 : v > 127 ? 127 : v;
}

static inline int32_t clamp16(int32_t v)
{
  return v < -32768 ? -32768 : v > 32767 ? 32767 : v;
}

/* clamp16(x + y) in 16-bit arithmetic, so gcc keeps 16-bit vector
   lanes: the sum overflowed when x and y share a sign that it lacks,
   and then saturates towards that sign.  The multiplies' products of
   two bytes are at most 2^14 in magnitude, so they fit y. */
static inline int16_t adds16(int16_t x, int16_t y)
{
  int16_t s = (int16_t)(uint16_t)((uint16_t)x + (uint16_t)y);
  int16_t sat = x < 0 ? INT16_MIN : INT16_MAX;
  return (int16_t)((x ^ s) & (y ^ s)) < 0 ? sat : s;
}

/* Byte [m] of a scalar register, sign-extended. */
static inline int32_t sbyte(intnat rv, int m)
{
  return (int32_t)(((rv >> (8 * m)) & 0xff) ^ 0x80) - 0x80;
}

/* Byte [m] of a little-endian word, sign-extended by two shifts. */
static inline int32_t wbyte(int32_t w, int m)
{
  return (int32_t)((uint32_t)w << (24 - 8 * m)) >> 24;
}

/* Vrmpy: 32-bit lane l gains the dot product of source bytes 4l..4l+3
   with the scalar's four bytes, wrapping at 32 bits.  The lane's source
   bytes are read as one word: they are the only bytes it reads, so the
   lane still reads everything before its write. */
LANES value gcd2_vm_vrmpy(value vdst, value vsrc, value vrt)
{
  unsigned char *dst = Bytes_val(vdst);
  const unsigned char *src = Bytes_val(vsrc);
  intnat rv = Long_val(vrt);
  int32_t b0 = sbyte(rv, 0), b1 = sbyte(rv, 1), b2 = sbyte(rv, 2), b3 = sbyte(rv, 3);
  for (int i = 0; i < 128; i += 4) {
    int32_t w = ld32(src + i);
    st32(dst + i, (uint32_t)ld32(dst + i)
                      + (uint32_t)(wbyte(w, 0) * b0 + wbyte(w, 1) * b1 + wbyte(w, 2) * b2
                                   + wbyte(w, 3) * b3));
  }
  return Val_unit;
}

/* Vmpy: source byte i meets scalar byte i mod 4 and saturates into
   16-bit lane i/2 of lo (i even) or hi (i odd). */
LANES value gcd2_vm_vmpy(value vlo, value vhi, value vsrc, value vrt)
{
  unsigned char *lo = Bytes_val(vlo), *hi = Bytes_val(vhi);
  const int8_t *src = (const int8_t *)Bytes_val(vsrc);
  intnat rv = Long_val(vrt);
  int32_t b0 = sbyte(rv, 0), b1 = sbyte(rv, 1), b2 = sbyte(rv, 2), b3 = sbyte(rv, 3);
  for (int o = 0; o < 128; o += 4) {
    st16(lo + o, adds16(ld16(lo + o), src[o] * b0));
    st16(hi + o, adds16(ld16(hi + o), src[o + 1] * b1));
    st16(lo + o + 2, adds16(ld16(lo + o + 2), src[o + 2] * b2));
    st16(hi + o + 2, adds16(ld16(hi + o + 2), src[o + 3] * b3));
  }
  return Val_unit;
}

/* Vmpyb: Vmpy with scalar byte [sel] (0..3) for every source byte. */
LANES value gcd2_vm_vmpyb(value vlo, value vhi, value vsrc, value vrt, value vsel)
{
  unsigned char *lo = Bytes_val(vlo), *hi = Bytes_val(vhi);
  const int8_t *src = (const int8_t *)Bytes_val(vsrc);
  int32_t w = sbyte(Long_val(vrt), (int)Long_val(vsel));
  for (int o = 0; o < 128; o += 2) {
    st16(lo + o, adds16(ld16(lo + o), src[o] * w));
    st16(hi + o, adds16(ld16(hi + o), src[o + 1] * w));
  }
  return Val_unit;
}

/* Vmul: Vmpyb with byte i of a second vector for the scalar byte. */
LANES value gcd2_vm_vmul(value vlo, value vhi, value va, value vb)
{
  unsigned char *lo = Bytes_val(vlo), *hi = Bytes_val(vhi);
  const int8_t *a = (const int8_t *)Bytes_val(va), *b = (const int8_t *)Bytes_val(vb);
  for (int o = 0; o < 128; o += 2) {
    st16(lo + o, adds16(ld16(lo + o), a[o] * b[o]));
    st16(hi + o, adds16(ld16(hi + o), a[o + 1] * b[o + 1]));
  }
  return Val_unit;
}

/* Vaddw: 16-bit source lane l adds into 32-bit lane l of the pair (lo
   holds lanes 0..31, hi lanes 32..63), wrapping at 32 bits. */
LANES value gcd2_vm_vaddw(value vlo, value vhi, value vsrc)
{
  unsigned char *lo = Bytes_val(vlo), *hi = Bytes_val(vhi);
  const unsigned char *src = Bytes_val(vsrc);
  for (int l = 0; l < 32; l++)
    st32(lo + 4 * l, (uint32_t)ld32(lo + 4 * l) + (uint32_t)ld16(src + 2 * l));
  for (int l = 0; l < 32; l++)
    st32(hi + 4 * l, (uint32_t)ld32(hi + 4 * l) + (uint32_t)ld16(src + 64 + 2 * l));
  return Val_unit;
}

/* Vpack W32: the pair's 64 32-bit lanes saturate into 16-bit lanes. */
LANES value gcd2_vm_vpack_w32(value vdst, value vlo, value vhi)
{
  unsigned char *dst = Bytes_val(vdst);
  const unsigned char *plo = Bytes_val(vlo), *phi = Bytes_val(vhi);
  for (int l = 0; l < 32; l++)
    st16(dst + 2 * l, clamp16(ld32(plo + 4 * l)));
  for (int l = 0; l < 32; l++)
    st16(dst + 64 + 2 * l, clamp16(ld32(phi + 4 * l)));
  return Val_unit;
}

/* Vpack W16: the pair's 128 16-bit lanes saturate into bytes. */
LANES value gcd2_vm_vpack_w16(value vdst, value vlo, value vhi)
{
  unsigned char *dst = Bytes_val(vdst);
  const unsigned char *plo = Bytes_val(vlo), *phi = Bytes_val(vhi);
  for (int l = 0; l < 64; l++)
    dst[l] = (unsigned char)clamp8(ld16(plo + 2 * l));
  for (int l = 0; l < 64; l++)
    dst[64 + l] = (unsigned char)clamp8(ld16(phi + 2 * l));
  return Val_unit;
}

/* [Sat.apply_multiplier x (m, shift)] for 0 <= shift <= 62, from
   [p2] = 2 x m: OCaml's 63-bit wraparound of the product, the sign
   trick's |x m| and the rounding sum included.  Each 63-bit OCaml value
   v is carried as 2v in 64 bits, OCaml's own tagged form without the
   tag bit, so 64-bit wrapping arithmetic is OCaml's 63-bit wrapping
   arithmetic: [half2] is twice the rounding constant.  The shift is an
   arithmetic one, made of logical ones around the sign mask [t], and
   clearing bit 0 keeps the result a doubled value.  The clamp to 32
   bits compares doubled values, so the final halving can be logical. */
static inline uint32_t scale(uint64_t p2, uint64_t half2, int shift)
{
  uint64_t s = (int64_t)p2 < 0 ? ~(uint64_t)0 : 0;
  uint64_t a = ((p2 ^ s) - s) + half2;
  uint64_t t = (int64_t)a < 0 ? ~(uint64_t)0 : 0;
  uint64_t r = (((a ^ t) >> shift) ^ t) & ~(uint64_t)1;
  int64_t q = (int64_t)((r ^ s) - s);
  const int64_t lo = -((int64_t)1 << 32), hi = ((int64_t)1 << 32) - 2;
  q = q < lo ? lo : q > hi ? hi : q;
  return (uint32_t)((uint64_t)q >> 1);
}

static inline uint64_t half2_of(int shift)
{
  return shift == 0 ? 0 : (uint64_t)1 << shift;
}

/* Vscale: 32-bit lane l becomes [Sat.apply_multiplier] of source lane l
   by the immediate multiplier, any OCaml int. */
LANES value gcd2_vm_vscale(value vdst, value vsrc, value vmult, value vshift)
{
  unsigned char *dst = Bytes_val(vdst);
  const unsigned char *src = Bytes_val(vsrc);
  uint64_t m2 = (uint64_t)Long_val(vmult) << 1;
  int shift = (int)Long_val(vshift);
  uint64_t half2 = half2_of(shift);
  for (int o = 0; o < 128; o += 4)
    st32(dst + o, scale((uint64_t)(int64_t)ld32(src + o) * m2, half2, shift));
  return Val_unit;
}

/* Vscalev: Vscale with lane l of a third vector for the multiplier.  A
   product of two 32-bit lanes is exact in 64 bits before it is
   doubled. */
LANES value gcd2_vm_vscalev(value vdst, value vsrc, value vmul, value vshift)
{
  unsigned char *dst = Bytes_val(vdst);
  const unsigned char *src = Bytes_val(vsrc), *mul = Bytes_val(vmul);
  int shift = (int)Long_val(vshift);
  uint64_t half2 = half2_of(shift);
  for (int o = 0; o < 128; o += 4)
    st32(dst + o,
         scale((uint64_t)((int64_t)ld32(src + o) * ld32(mul + o)) << 1, half2, shift));
  return Val_unit;
}

/* Saturating 32-bit sum and difference in 32-bit arithmetic: the
   result overflowed when its sign differs from what the operands'
   signs force, and then saturates towards x's sign. */
static inline int32_t adds32(int32_t x, int32_t y)
{
  uint32_t s = (uint32_t)x + (uint32_t)y;
  return (int32_t)((x ^ s) & (y ^ s)) < 0 ? (x >> 31) ^ INT32_MAX : (int32_t)s;
}

static inline int32_t subs32(int32_t x, int32_t y)
{
  uint32_t s = (uint32_t)x - (uint32_t)y;
  return (int32_t)((x ^ y) & (x ^ s)) < 0 ? (x >> 31) ^ INT32_MAX : (int32_t)s;
}

/* One Valu lane loop over a 128-byte segment: lanes of [n] bytes, read
   signed by [ld] into x and y, and the low bits of [e] stored by [st]. */
#define LANEWISE(n, ld, st, e)                                                    \
  for (int o = 0; o < 128; o += (n)) {                                            \
    int32_t x = ld(a + o), y = ld(b + o);                                         \
    st(d + o, e);                                                                 \
  }

/* Valu over one 128-byte segment (machine.ml calls it once per segment
   of a V or P operand): [op] is Vadd, Vsub, Vmax, Vmin, Vavg, Vand, Vor,
   Vxor = 0..7, [width] W8, W16, W32 = 0..2.  Vavg is (x + y + 1) asr 1;
   at 32 bits it is summed halves, which cannot overflow.  The bitwise
   ops store the same bytes at every width. */
LANES value gcd2_vm_valu(value vd, value va, value vb, value vop, value vwidth)
{
  unsigned char *d = Bytes_val(vd);
  const unsigned char *a = Bytes_val(va), *b = Bytes_val(vb);
  switch (Long_val(vop) * 3 + Long_val(vwidth)) {
  case 0: LANEWISE(1, ld8, st8, clamp8(x + y)); break;
  case 1: LANEWISE(2, ld16, st16, clamp16(x + y)); break;
  case 2: LANEWISE(4, ld32, st32, (uint32_t)adds32(x, y)); break;
  case 3: LANEWISE(1, ld8, st8, clamp8(x - y)); break;
  case 4: LANEWISE(2, ld16, st16, clamp16(x - y)); break;
  case 5: LANEWISE(4, ld32, st32, (uint32_t)subs32(x, y)); break;
  case 6: LANEWISE(1, ld8, st8, x > y ? x : y); break;
  case 7: LANEWISE(2, ld16, st16, x > y ? x : y); break;
  case 8: LANEWISE(4, ld32, st32, (uint32_t)(x > y ? x : y)); break;
  case 9: LANEWISE(1, ld8, st8, x < y ? x : y); break;
  case 10: LANEWISE(2, ld16, st16, x < y ? x : y); break;
  case 11: LANEWISE(4, ld32, st32, (uint32_t)(x < y ? x : y)); break;
  case 12: LANEWISE(1, ld8, st8, (x + y + 1) >> 1); break;
  case 13: LANEWISE(2, ld16, st16, (x + y + 1) >> 1); break;
  case 14: LANEWISE(4, ld32, st32, (uint32_t)((x >> 1) + (y >> 1) + ((x | y) & 1))); break;
  case 15: case 16: case 17: LANEWISE(1, ld8, st8, x & y); break;
  case 18: case 19: case 20: LANEWISE(1, ld8, st8, x | y); break;
  case 21: case 22: case 23: LANEWISE(1, ld8, st8, x ^ y); break;
  }
  return Val_unit;
}

/* Vshuff into one destination register of [bytes]-byte lanes: lane 2i
   is lane i0 + i of the source pair's low half, lane 2i+1 lane i0 + i
   of its high half.  Callers pass a constant [bytes], so each copy is
   one load and one store. */
static inline void interleave(unsigned char *dst, const unsigned char *slo,
                              const unsigned char *shi, int bytes, int i0)
{
  int n = 64 / bytes;
  for (int i = 0; i < n; i++) {
    memcpy(dst + 2 * i * bytes, slo + (i0 + i) * bytes, bytes);
    memcpy(dst + (2 * i + 1) * bytes, shi + (i0 + i) * bytes, bytes);
  }
}

/* Vshuff: the pair's two halves interleave at lane width [width] (0..2
   for W8, W16, W32).  Pairs are aligned, so they alias only when pd =
   ps; then the whole source is read first, as the reference reads it.
   The low destination half takes the first half of each source half's
   lanes, the high destination half the second. */
LANES value gcd2_vm_vshuff(value vdlo, value vdhi, value vslo, value vshi, value vwidth)
{
  unsigned char *dlo = Bytes_val(vdlo), *dhi = Bytes_val(vdhi);
  const unsigned char *slo = Bytes_val(vslo), *shi = Bytes_val(vshi);
  unsigned char copy[256];
  if (dlo == slo) {
    memcpy(copy, slo, 128);
    memcpy(copy + 128, shi, 128);
    slo = copy;
    shi = copy + 128;
  }
  int bytes = 1 << Long_val(vwidth);
  switch (bytes) {
  case 1:
    interleave(dlo, slo, shi, 1, 0);
    interleave(dhi, slo, shi, 1, 64);
    break;
  case 2:
    interleave(dlo, slo, shi, 2, 0);
    interleave(dhi, slo, shi, 2, 32);
    break;
  default:
    interleave(dlo, slo, shi, 4, 0);
    interleave(dhi, slo, shi, 4, 16);
  }
  return Val_unit;
}

/* Vlut: byte i becomes the low byte of entry (source byte i) of the
   OCaml int array [vtable], at least 256 entries long.  Byte i is read
   before it is written and no other byte is, so vd = vs needs no copy
   of the source, although the reference takes one. */
LANES value gcd2_vm_vlut(value vdst, value vsrc, value vtable)
{
  unsigned char *dst = Bytes_val(vdst);
  const unsigned char *src = Bytes_val(vsrc);
  const value *table = (const value *)vtable;
  for (int i = 0; i < 128; i++)
    dst[i] = (unsigned char)Long_val(table[src[i]]);
  return Val_unit;
}
