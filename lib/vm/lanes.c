/* The simulator's native engine (machine.ml): one loop over a program's
   flat decode, with every lane loop as one of its cases.

   Each lane function is the reference interpreter's loop, statement for
   statement: the same lane order, and within a lane the same reads
   before the same write.  A source may alias the destination (Vrmpy
   with vd = vs, a Vmpy/Vmpyb/Vmul source inside its destination pair,
   Vmpa with pd = ps, a Vpack destination inside its source pair, a
   Valu, Vscale, Vscalev or Vlut destination equal to a source, a Vshuff
   with pd = ps), and only that order gives the reference interpreter's
   bytes, so no pointer is restrict.  gcc versions the loops on a
   runtime overlap check and vectorizes the non-overlapping case.

   The vector registers are one 4096-byte [bytes]: V n at 128 n, and
   P k at 256 k with its low half V 2k first, so a pair's halves are
   adjacent.  Lane words are little-endian like the simulated DSP;
   machine.ml refuses a big-endian host.  Nothing here allocates, raises
   or releases the runtime lock, which is what the [@@noalloc] external
   of [gcd2_vm_exec] promises. */

#include <stdint.h>
#include <string.h>
#include <caml/mlvalues.h>
#include <caml/alloc.h>
#include <caml/memory.h>

/* On x86-64 the engine is compiled twice, for the baseline ISA and for
   AVX2, and the dynamic loader binds the symbol to the clone the running
   CPU supports (an ifunc, which glibc's loader resolves).  Each lane
   function is always inlined, so each clone holds its own build of it:
   one that gcc leaves out of line is built for the baseline ISA only.
   Elsewhere there is one build. */
#if defined(__x86_64__) && defined(__ELF__) && defined(__GNUC__) && defined(__GLIBC__)
#define CLONED 1
#define LANES __attribute__((target_clones("avx2", "default")))
#define LANE static inline __attribute__((always_inline))
#else
#define CLONED 0
#define LANES
#define LANE static inline
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

/* Stores the low 16 bits, as the reference's [set_lane] does. */
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
static inline int32_t sbyte(int32_t rv, int m)
{
  return (int32_t)((((uint32_t)rv >> (8 * m)) & 0xff) ^ 0x80) - 0x80;
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
LANE void vrmpy(unsigned char *dst, const unsigned char *src, int32_t rv)
{
  int32_t b0 = sbyte(rv, 0), b1 = sbyte(rv, 1), b2 = sbyte(rv, 2), b3 = sbyte(rv, 3);
  for (int i = 0; i < 128; i += 4) {
    int32_t w = ld32(src + i);
    st32(dst + i, (uint32_t)ld32(dst + i)
                      + (uint32_t)(wbyte(w, 0) * b0 + wbyte(w, 1) * b1 + wbyte(w, 2) * b2
                                   + wbyte(w, 3) * b3));
  }
}

/* Vmpy: source byte i meets scalar byte i mod 4 and saturates into
   16-bit lane i/2 of the pair's low half (i even) or high half (i odd). */
LANE void vmpy(unsigned char *lo, const int8_t *src, int32_t rv)
{
  unsigned char *hi = lo + 128;
  int32_t b0 = sbyte(rv, 0), b1 = sbyte(rv, 1), b2 = sbyte(rv, 2), b3 = sbyte(rv, 3);
  for (int o = 0; o < 128; o += 4) {
    st16(lo + o, adds16(ld16(lo + o), src[o] * b0));
    st16(hi + o, adds16(ld16(hi + o), src[o + 1] * b1));
    st16(lo + o + 2, adds16(ld16(lo + o + 2), src[o + 2] * b2));
    st16(hi + o + 2, adds16(ld16(hi + o + 2), src[o + 3] * b3));
  }
}

/* Vmpyb: Vmpy with one scalar byte [w] for every source byte. */
LANE void vmpyb(unsigned char *lo, const int8_t *src, int32_t w)
{
  unsigned char *hi = lo + 128;
  for (int o = 0; o < 128; o += 2) {
    st16(lo + o, adds16(ld16(lo + o), src[o] * w));
    st16(hi + o, adds16(ld16(hi + o), src[o + 1] * w));
  }
}

/* Vmul: Vmpyb with byte i of a second vector for the scalar byte. */
LANE void vmul(unsigned char *lo, const int8_t *a, const int8_t *b)
{
  unsigned char *hi = lo + 128;
  for (int o = 0; o < 128; o += 2) {
    st16(lo + o, adds16(ld16(lo + o), a[o] * b[o]));
    st16(hi + o, adds16(ld16(hi + o), a[o + 1] * b[o + 1]));
  }
}

/* Vmpa: 16-bit lane j of the low half gains byte 2j of the source
   pair's low half times scalar byte 0 plus byte 2j of its high half
   times scalar byte 1; the high half's lane j takes bytes 2j+1 and
   scalar bytes 2 and 3.  Each lane's sum saturates once, as the
   reference's [Sat.sat16 (l + p0 + p1)] does: two [adds16] steps would
   clip a partial sum that the second product brings back in range. */
LANE void vmpa(unsigned char *lo, const int8_t *q, int32_t rv)
{
  unsigned char *hi = lo + 128;
  const int8_t *q1 = q + 128;
  int32_t b0 = sbyte(rv, 0), b1 = sbyte(rv, 1), b2 = sbyte(rv, 2), b3 = sbyte(rv, 3);
  for (int o = 0; o < 128; o += 2) {
    st16(lo + o, clamp16(ld16(lo + o) + q[o] * b0 + q1[o] * b1));
    st16(hi + o, clamp16(ld16(hi + o) + q[o + 1] * b2 + q1[o + 1] * b3));
  }
}

/* Vaddw: 16-bit source lane l adds into 32-bit lane l of the pair,
   wrapping at 32 bits. */
LANE void vaddw(unsigned char *p, const unsigned char *src)
{
  for (int l = 0; l < 64; l++)
    st32(p + 4 * l, (uint32_t)ld32(p + 4 * l) + (uint32_t)ld16(src + 2 * l));
}

/* Vpack W32: the pair's 64 32-bit lanes saturate into 16-bit lanes. */
LANE void vpack_w32(unsigned char *dst, const unsigned char *p)
{
  for (int l = 0; l < 64; l++)
    st16(dst + 2 * l, clamp16(ld32(p + 4 * l)));
}

/* Vpack W16: the pair's 128 16-bit lanes saturate into bytes. */
LANE void vpack_w16(unsigned char *dst, const unsigned char *p)
{
  for (int l = 0; l < 128; l++)
    dst[l] = (unsigned char)clamp8(ld16(p + 2 * l));
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
LANE void vscale(unsigned char *dst, const unsigned char *src, intnat mult, int shift)
{
  uint64_t m2 = (uint64_t)mult << 1;
  uint64_t half2 = half2_of(shift);
  for (int o = 0; o < 128; o += 4)
    st32(dst + o, scale((uint64_t)(int64_t)ld32(src + o) * m2, half2, shift));
}

/* Vscalev: Vscale with lane l of a third vector for the multiplier.  A
   product of two 32-bit lanes is exact in 64 bits before it is
   doubled. */
LANE void vscalev(unsigned char *dst, const unsigned char *src,
                           const unsigned char *mul, int shift)
{
  uint64_t half2 = half2_of(shift);
  for (int o = 0; o < 128; o += 4)
    st32(dst + o,
         scale((uint64_t)((int64_t)ld32(src + o) * ld32(mul + o)) << 1, half2, shift));
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

/* Valu over one 128-byte segment (a pair operand is two segments, low
   half first): [sel] is 3 op + width, with Vadd, Vsub, Vmax, Vmin, Vavg,
   Vand, Vor, Vxor = 0..7 and W8, W16, W32 = 0..2.  Vavg is
   (x + y + 1) asr 1; at 32 bits it is summed halves, which cannot
   overflow.  The bitwise ops store the same bytes at every width. */
LANE void valu(unsigned char *d, const unsigned char *a, const unsigned char *b,
                        intnat sel)
{
  switch (sel) {
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
}

/* Vshuff into one destination register of [bytes]-byte lanes: lane 2i
   is lane i0 + i of the source pair's low half, lane 2i+1 lane i0 + i
   of its high half.  Callers pass a constant [bytes], so each copy is
   one load and one store. */
LANE void interleave(unsigned char *dst, const unsigned char *slo,
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
LANE void vshuff(unsigned char *dlo, const unsigned char *slo, intnat width)
{
  unsigned char *dhi = dlo + 128;
  unsigned char copy[256];
  if (dlo == slo) {
    memcpy(copy, slo, 256);
    slo = copy;
  }
  const unsigned char *shi = slo + 128;
  switch (width) {
  case 0:
    interleave(dlo, slo, shi, 1, 0);
    interleave(dhi, slo, shi, 1, 64);
    break;
  case 1:
    interleave(dlo, slo, shi, 2, 0);
    interleave(dhi, slo, shi, 2, 32);
    break;
  default:
    interleave(dlo, slo, shi, 4, 0);
    interleave(dhi, slo, shi, 4, 16);
  }
}

/* Vlut: byte i becomes entry (source byte i) of a 256-byte table, the
   low bytes of the program's table.  Byte i is read before it is
   written and no other byte is, so vd = vs needs no copy of the
   source, although the reference takes one. */
LANE void vlut(unsigned char *dst, const unsigned char *src,
                        const unsigned char *table)
{
  for (int i = 0; i < 128; i++)
    dst[i] = table[src[i]];
}

/* The scalar ALU on the 32-bit register value [a] and the operand [b],
   a register value or an immediate of any OCaml int: [op] is Add, Sub,
   And, Or, Xor, Shl, Shr, Min, Max = 0..8.  It computes in 64 bits and
   returns the low 32, which is what [Sat.wrap32] keeps of OCaml's
   63-bit result: 2^63 and 2^64 are both multiples of 2^32.  Min and Max
   compare signed 64-bit values, as OCaml compares the immediate. */
LANE int32_t salu(intnat op, int32_t a, intnat b)
{
  uint64_t x = (uint64_t)(int64_t)a, y = (uint64_t)b;
  uint64_t r;
  switch (op) {
  case 0: r = x + y; break;
  case 1: r = x - y; break;
  case 2: r = x & y; break;
  case 3: r = x | y; break;
  case 4: r = x ^ y; break;
  case 5: r = x << (y & 31); break;
  case 6: r = (uint64_t)(int64_t)(a >> (y & 31)); break;
  case 7: r = (int64_t)a < (int64_t)b ? x : y; break;
  default: r = (int64_t)a > (int64_t)b ? x : y; break;
  }
  return (int32_t)(uint32_t)r;
}

/* Record opcodes of machine.ml's decode, in its order. */
enum {
  OP_PACKET, OP_LOOP, OP_END, OP_SMOVI, OP_SALU_R, OP_SALU_I, OP_SMUL_R, OP_SMUL_I,
  OP_SLOAD, OP_SSTORE, OP_VLOAD, OP_VSTORE, OP_VMOVI, OP_VDUP, OP_VALU, OP_VADDW,
  OP_VMPY, OP_VMPYB, OP_VMUL, OP_VMPA, OP_VRMPY, OP_VSCALE, OP_VSCALEV, OP_VPACK_W32,
  OP_VPACK_W16, OP_VSHUFF, OP_VLUT
};

/* Run [code], the flat decode of one program (machine.ml's [decode]
   documents its records), on the machine's scalar registers [vsregs]
   (an int array), vector registers [vvregs] and memory [vmem], of which
   the first [vlimit] bytes are addressable.  [vluts] holds the
   program's Vlut tables, [vloops] one trip counter per loop.  The six
   counters of the record [vcounters] (cycles, packets, instrs, macs,
   loaded and stored bytes, in its field order) live in locals, and they
   and the scalar registers are stored back on return.  Returns -1, or
   at a bounds fault the fault index of the memory instruction, which is
   not counted: the reference runs it again, counts it and raises. */
LANES value gcd2_vm_exec(value vcode, value vluts, value vloops, value vsregs, value vvregs,
                         value vmem, value vlimit, value vcounters)
{
  const value *code = (const value *)vcode;
  const intnat n = (intnat)Wosize_val(vcode);
  const unsigned char *luts = Bytes_val(vluts);
  intnat *loops = (intnat *)Bytes_val(vloops);
  unsigned char *V = Bytes_val(vvregs), *mem = Bytes_val(vmem);
  const intnat limit = Long_val(vlimit);
  int32_t s[32];
  for (int i = 0; i < 32; i++)
    s[i] = (int32_t)Long_val(Field(vsregs, i));
  intnat cycles = Long_val(Field(vcounters, 0)), packets = Long_val(Field(vcounters, 1)),
         instrs = Long_val(Field(vcounters, 2)), macs = Long_val(Field(vcounters, 3)),
         loaded = Long_val(Field(vcounters, 4)), stored = Long_val(Field(vcounters, 5));
  intnat fault = -1, pc = 0;
  while (pc < n) {
    const value *w = code + pc;
#define A(k) Long_val(w[k])
    switch (A(0)) {
    case OP_PACKET:
      packets++;
      cycles += A(1);
      pc += 2;
      continue;
    /* LOOP trip slot len, the body's [len] words, END slot len */
    case OP_LOOP:
      if (A(1) > 0) {
        loops[A(2)] = A(1);
        pc += 4;
      } else
        pc += 4 + A(3) + 3;
      continue;
    case OP_END:
      pc += --loops[A(1)] > 0 ? -A(2) : 3;
      continue;
    case OP_SMOVI:
      s[A(1)] = (int32_t)A(2);
      pc += 3;
      break;
    case OP_SALU_R:
      s[A(2)] = salu(A(1), s[A(3)], s[A(4)]);
      pc += 5;
      break;
    case OP_SALU_I:
      s[A(2)] = salu(A(1), s[A(3)], A(4));
      pc += 5;
      break;
    case OP_SMUL_R:
      s[A(1)] = (int32_t)(uint32_t)((uint64_t)(int64_t)s[A(2)] * (uint64_t)(int64_t)s[A(3)]);
      pc += 4;
      break;
    case OP_SMUL_I:
      s[A(1)] = (int32_t)(uint32_t)((uint64_t)(int64_t)s[A(2)] * (uint64_t)A(3));
      pc += 4;
      break;
    /* memory: fault index, register, base register, offset.  [a] is
       the address, in 64 bits where an int32 plus a 63-bit offset
       cannot overflow, and the bounds test is the reference's
       [addr < 0 || addr > mem_limit - size], which cannot either. */
#define ADDRESS(size)                                                             \
      intnat a = (intnat)s[A(3)] + A(4);                                          \
      if (a < 0 || a > limit - (size)) {                                          \
        fault = A(1);                                                             \
        goto out;                                                                 \
      }
    case OP_SLOAD: {
      ADDRESS(4);
      loaded += 4;
      s[A(2)] = ld32(mem + a);
      pc += 5;
      break;
    }
    case OP_SSTORE: {
      ADDRESS(4);
      stored += 4;
      st32(mem + a, (uint32_t)s[A(2)]);
      pc += 5;
      break;
    }
    case OP_VLOAD: {
      ADDRESS(128);
      loaded += 128;
      memcpy(V + A(2), mem + a, 128);
      pc += 5;
      break;
    }
    case OP_VSTORE: {
      ADDRESS(128);
      stored += 128;
      memcpy(mem + a, V + A(2), 128);
      pc += 5;
      break;
    }
#undef ADDRESS
    /* vd bytes value | vd bytes scalar */
    case OP_VMOVI:
      memset(V + A(1), (int)(A(3) & 0xff), (size_t)A(2));
      pc += 4;
      break;
    case OP_VDUP:
      memset(V + A(1), s[A(3)] & 0xff, (size_t)A(2));
      pc += 4;
      break;
    /* sel vd va vb bytes */
    case OP_VALU:
      for (intnat o = 0; o < A(5); o += 128)
        valu(V + A(2) + o, V + A(3) + o, V + A(4) + o, A(1));
      pc += 6;
      break;
    case OP_VADDW:
      vaddw(V + A(1), V + A(2));
      pc += 3;
      break;
    case OP_VMPY:
      macs += 128;
      vmpy(V + A(1), (const int8_t *)(V + A(2)), s[A(3)]);
      pc += 4;
      break;
    /* pd vs rt sel */
    case OP_VMPYB:
      macs += 128;
      vmpyb(V + A(1), (const int8_t *)(V + A(2)), sbyte(s[A(3)], (int)A(4)));
      pc += 5;
      break;
    case OP_VMUL:
      macs += 128;
      vmul(V + A(1), (const int8_t *)(V + A(2)), (const int8_t *)(V + A(3)));
      pc += 4;
      break;
    case OP_VMPA:
      macs += 256;
      vmpa(V + A(1), (const int8_t *)(V + A(2)), s[A(3)]);
      pc += 4;
      break;
    case OP_VRMPY:
      macs += 128;
      vrmpy(V + A(1), V + A(2), s[A(3)]);
      pc += 4;
      break;
    /* vd vs mult shift */
    case OP_VSCALE:
      vscale(V + A(1), V + A(2), A(3), (int)A(4));
      pc += 5;
      break;
    /* vd vs vm shift */
    case OP_VSCALEV:
      vscalev(V + A(1), V + A(2), V + A(3), (int)A(4));
      pc += 5;
      break;
    case OP_VPACK_W32:
      vpack_w32(V + A(1), V + A(2));
      pc += 3;
      break;
    case OP_VPACK_W16:
      vpack_w16(V + A(1), V + A(2));
      pc += 3;
      break;
    /* pd ps width */
    case OP_VSHUFF:
      vshuff(V + A(1), V + A(2), A(3));
      pc += 4;
      break;
    /* vd vs table offset */
    case OP_VLUT:
      vlut(V + A(1), V + A(2), luts + A(3));
      pc += 4;
      break;
    }
#undef A
    instrs++;
  }
out:
  for (int i = 0; i < 32; i++)
    Store_field(vsregs, i, Val_long(s[i]));
  Store_field(vcounters, 0, Val_long(cycles));
  Store_field(vcounters, 1, Val_long(packets));
  Store_field(vcounters, 2, Val_long(instrs));
  Store_field(vcounters, 3, Val_long(macs));
  Store_field(vcounters, 4, Val_long(loaded));
  Store_field(vcounters, 5, Val_long(stored));
  return Val_long(fault);
}

value gcd2_vm_exec_byte(value *argv, int argn)
{
  (void)argn;
  return gcd2_vm_exec(argv[0], argv[1], argv[2], argv[3], argv[4], argv[5], argv[6], argv[7]);
}
