//===- support/StringUtils.cpp - Small string helpers ---------------------===//
//
// Part of the swa-sched project.
//
//===----------------------------------------------------------------------===//

#include "support/StringUtils.h"

#include <cctype>
#include <cstdarg>
#include <cstdio>
#include <limits>

using namespace swa;

std::string swa::formatString(const char *Fmt, ...) {
  va_list Args;
  va_start(Args, Fmt);
  va_list ArgsCopy;
  va_copy(ArgsCopy, Args);
  int Needed = std::vsnprintf(nullptr, 0, Fmt, Args);
  va_end(Args);
  std::string Out;
  if (Needed > 0) {
    Out.resize(static_cast<size_t>(Needed) + 1);
    std::vsnprintf(Out.data(), Out.size(), Fmt, ArgsCopy);
    Out.resize(static_cast<size_t>(Needed));
  }
  va_end(ArgsCopy);
  return Out;
}

std::string_view swa::trim(std::string_view S) {
  size_t B = 0, E = S.size();
  while (B < E && std::isspace(static_cast<unsigned char>(S[B])))
    ++B;
  while (E > B && std::isspace(static_cast<unsigned char>(S[E - 1])))
    --E;
  return S.substr(B, E - B);
}

std::vector<std::string> swa::split(std::string_view S, char Sep) {
  std::vector<std::string> Out;
  size_t Start = 0;
  for (size_t I = 0; I <= S.size(); ++I) {
    if (I == S.size() || S[I] == Sep) {
      Out.emplace_back(S.substr(Start, I - Start));
      Start = I + 1;
    }
  }
  return Out;
}

bool swa::startsWith(std::string_view S, std::string_view Prefix) {
  return S.size() >= Prefix.size() && S.substr(0, Prefix.size()) == Prefix;
}

bool swa::endsWith(std::string_view S, std::string_view Suffix) {
  return S.size() >= Suffix.size() &&
         S.substr(S.size() - Suffix.size()) == Suffix;
}

bool swa::parseInt64(std::string_view S, int64_t &Out) {
  S = trim(S);
  if (S.empty())
    return false;
  bool Negative = false;
  size_t I = 0;
  if (S[0] == '-' || S[0] == '+') {
    Negative = S[0] == '-';
    I = 1;
    if (I == S.size())
      return false;
  }
  int64_t Value = 0;
  for (; I < S.size(); ++I) {
    if (!std::isdigit(static_cast<unsigned char>(S[I])))
      return false;
    int Digit = S[I] - '0';
    if (Value > (std::numeric_limits<int64_t>::max() - Digit) / 10)
      return false;
    Value = Value * 10 + Digit;
  }
  Out = Negative ? -Value : Value;
  return true;
}

bool swa::parseUInt64(std::string_view S, uint64_t &Out) {
  S = trim(S);
  if (S.empty())
    return false;
  size_t I = 0;
  if (S[0] == '+') {
    I = 1;
    if (I == S.size())
      return false;
  }
  uint64_t Value = 0;
  for (; I < S.size(); ++I) {
    if (!std::isdigit(static_cast<unsigned char>(S[I])))
      return false;
    unsigned Digit = static_cast<unsigned>(S[I] - '0');
    if (Value > (std::numeric_limits<uint64_t>::max() - Digit) / 10)
      return false;
    Value = Value * 10 + Digit;
  }
  Out = Value;
  return true;
}

bool swa::parseDecimal(std::string_view S, uint64_t &Out) {
  if (S.empty() || S.find_first_not_of("0123456789") != std::string_view::npos)
    return false;
  return parseUInt64(S, Out);
}

std::string swa::join(const std::vector<std::string> &Pieces,
                      std::string_view Sep) {
  std::string Out;
  for (size_t I = 0; I < Pieces.size(); ++I) {
    if (I != 0)
      Out.append(Sep);
    Out.append(Pieces[I]);
  }
  return Out;
}

bool swa::isIdentStart(char C) {
  return C == '_' || std::isalpha(static_cast<unsigned char>(C));
}

bool swa::isIdentChar(char C) {
  return C == '_' || std::isalnum(static_cast<unsigned char>(C));
}

bool swa::isIdentifier(std::string_view S) {
  if (S.empty() || !isIdentStart(S[0]))
    return false;
  for (char C : S.substr(1))
    if (!isIdentChar(C))
      return false;
  return true;
}
